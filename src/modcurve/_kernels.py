"""The canonical rows behind the coset enumeration.

Every bottom-row pair (c, d) mod N names the least pair of its
Delta-scaling orbit {(a*c, a*d) mod N : a in Delta}, ordered
lexicographically.  The least orbit pair first minimises a*c mod N; for
g = gcd(c, N) the minimisers form a coset a0(c)*K_g of

    K_g = {k in Delta : k = 1 mod N/g},

so the canonical pair is (a0(c)*c, least_g(a0(c)*d)) mod N, with
least_g(e) the least k*e mod N over k in K_g.  least_g depends on g only,
not on c: one |Delta| x N pass gives a0 and the canonical rows, and one
|K_g| x N pass per divisor g of N gives least_g, whose fixed points e with
gcd(e, g) = 1 are the canonical columns D_g.  The cosets are the pairs
(c, e) with c a canonical row and e in D_gcd(c, N), and no table has more
than tau(N) x N cells.  K_1 = {1}, and K_N = Delta.
"""

from __future__ import annotations

import numpy as np

from .zmodn import divisors

__all__ = ["HAS_NUMBA", "resolve_backend", "canonical_rows"]

# HAS_NUMBA and resolve_backend() stay only because the benchmark harness
# (perfbench/child.py, perfbench/spans.py) reports them; there is one
# backend.
HAS_NUMBA = False

#: Most cells of one block of products k*e mod N.
_BLOCK = 1 << 18


def resolve_backend() -> str:
    """The name of the kernel backend, always "numpy"."""
    return "numpy"


def _products(factors: np.ndarray, N: int):
    """The products k*e mod N, one row per factor k and one column per
    residue e, in blocks of at most ``_BLOCK`` cells: ``(block, products)``."""
    residues = np.arange(N, dtype=np.int64)
    step = max(1, _BLOCK // N)
    for lo in range(0, factors.size, step):
        block = factors[lo:lo + step]
        products = np.multiply.outer(block, residues)
        products %= N
        yield block, products


def canonical_rows(N: int, delta_elements: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """``(cosets, row_start, row_scale, row_divisor, column_rank)`` for the
    Delta-scaling orbits of the pairs (c, d) mod N with gcd(c, d, N) = 1.

    ``cosets`` holds the canonical pair of every orbit, one row each, in
    increasing order of c*N + d.  The orbit of (c, d) is the coset at
    position ``row_start[c] + column_rank[row_divisor[c], row_scale[c]*d mod N]``:
    ``row_scale[c]`` is a0(c), ``row_divisor[c]`` the index of gcd(c, N) in
    ``divisors(N)``, ``row_start[c]`` the first position of the canonical
    row a0(c)*c, and ``column_rank[i, e]`` the rank of least_g(e) in D_g for
    the i-th divisor g, or -1 when gcd(e, g) != 1 (see the module docstring).
    """
    delta = np.array(delta_elements, dtype=np.int64)
    residues = np.arange(N, dtype=np.int64)
    first = np.full(N, N, dtype=np.int64)
    row_scale = np.zeros(N, dtype=np.int64)
    for block, products in _products(delta, N):
        arg = products.argmin(axis=0)
        value = products[arg, residues]
        better = value < first
        first[better] = value[better]
        row_scale[better] = block[arg[better]]
    divs = np.array(divisors(N), dtype=np.int64)
    least = np.full((divs.size, N), N, dtype=np.int64)
    for g, row in zip(divs.tolist(), least):
        for _, products in _products(delta[delta % (N // g) == 1 % (N // g)], N):
            np.minimum(row, products.min(axis=0), out=row)
    # least_g keeps gcd(e, g): the columns D_g are its unimodular fixed points
    unimodular = np.gcd(divs[:, None], residues) == 1
    canonical = (least == residues) & unimodular
    rank = np.cumsum(canonical, axis=1) - 1
    column_rank = np.where(unimodular, np.take_along_axis(rank, least, axis=1), -1)
    row_divisor = np.searchsorted(divs, np.gcd(residues, N))  # gcd(0, N) = N
    rows = np.flatnonzero(first == residues)
    columns = [np.flatnonzero(row) for row in canonical]
    d = np.concatenate([columns[i] for i in row_divisor[rows].tolist()])
    sizes = canonical.sum(axis=1)[row_divisor[rows]]
    starts = np.cumsum(sizes) - sizes
    cosets = np.stack((np.repeat(rows, sizes), d), axis=1)
    row_start = np.zeros(N, dtype=np.int64)
    row_start[rows] = starts
    return cosets, row_start[first], row_scale, row_divisor, column_rank
