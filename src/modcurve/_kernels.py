"""The pair-canonicalization table behind the coset enumeration.

Canonicalizing all N*N bottom-row pairs (c, d) under Delta-scaling is done
with numpy, one vectorised pass per element of Delta.
"""

from __future__ import annotations

import numpy as np

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
    restrict to gcd(c, d, N) == 1 as needed.
    """
    idx = np.arange(N * N, dtype=np.int64)
    c = idx // N
    d = idx % N
    best = np.full(N * N, N * N, dtype=np.int64)
    for a in delta_elements:
        cand = (a * c % N) * N + a * d % N
        np.minimum(best, cand, out=best)
    return best
