"""The pair-canonicalization table behind the coset enumeration.

Every bottom-row pair (c, d) mod N is mapped to the least pair of its
Delta-scaling orbit {(a*c, a*d) mod N : a in Delta}, ordered
lexicographically.  The least orbit pair first minimises a*c mod N; for
g = gcd(c, N) the minimisers form a coset a0(c)*K_g of

    K_g = {k in Delta : k = 1 mod N/g},

so the second coordinate is the least a0(c)*k*d mod N over k in K_g.  The
rows are handled in one numpy block per divisor g of N, which makes |K_g|
passes over phi(N/g)*N cells: the table costs O(sum_g phi(N/g)*|K_g|*N)
plus one |Delta| x N table for the first coordinate.  K_1 = {1}, and only
the row c = 0 (g = N) scans all of Delta.
"""

from __future__ import annotations

import numpy as np

from .zmodn import divisors

__all__ = ["HAS_NUMBA", "resolve_backend", "canonical_pair_table"]

# HAS_NUMBA and resolve_backend() stay only because the benchmark harness
# (perfbench/child.py, perfbench/spans.py) reports them; there is one
# backend.
HAS_NUMBA = False


def resolve_backend() -> str:
    """The name of the kernel backend, always "numpy"."""
    return "numpy"


def canonical_pair_table(N: int, delta_elements: tuple[int, ...]) -> np.ndarray:
    """For every pair index c*N+d, the least index in its Delta-scaling orbit.

    The orbit of (c, d) is {(a*c mod N, a*d mod N) : a in Delta}; pairs are
    ordered by the flat index c*N+d.  The table covers *all* pairs; callers
    restrict to gcd(c, d, N) == 1 as needed.  Each row c takes one minimiser
    a0(c) of a*c mod N and the least a0(c)*k*d mod N over k in K_gcd(c, N)
    (see the module docstring).
    """
    delta = np.array(delta_elements, dtype=np.int64)
    residues = np.arange(N, dtype=np.int64)
    a0 = delta[(delta[:, None] * residues % N).argmin(axis=0)]
    gcds = np.gcd(residues, N)
    table = np.empty((N, N), dtype=np.int64)
    # every divisor g of N occurs, as gcd(g, N)
    for g in divisors(N):
        rows = np.flatnonzero(gcds == g)
        K = delta[delta % (N // g) == 1 % (N // g)]
        second = None
        for k in K.tolist():
            cand = (a0[rows] * k % N)[:, None] * residues
            np.remainder(cand, N, out=cand)
            second = cand if second is None else np.minimum(second, cand, out=second)
        second += (a0[rows] * rows % N)[:, None] * N
        table[rows] = second
    return table.ravel()
