"""Coset actions, genus, transversals and cusps of Gamma_Delta(N).

Gamma_Delta(N) is the group of integer matrices [[a, b], [c, d]] of
determinant 1 with c = 0 (mod N) and (a mod N) in Delta, where Delta is a
subgroup of (Z/NZ)* containing -1.  Right cosets in SL2(Z) are in bijection
with bottom-row pairs (c, d) in (Z/NZ)^2 with gcd(c, d, N) = 1, taken up to
scaling by Delta; the canonical coset name is the lexicographically least
scaled pair.

The coset space is kept in one int64 form: tables over the pair indices
c*N + d map every pair to its coset and to its cusp class, and the cosets,
sigma_S, sigma_T and the transversal are int64 arrays read from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import canonical_pair_table
from .errors import (
    CuspCountMismatch,
    DeterminantMismatch,
    FieldDegreeMismatch,
    InputError,
    NonIntegralGenus,
    NotUnimodular,
)
from .matrices import Mat2
from .zmodn import DeltaSubgroup, unit_group

__all__ = [
    "LEVEL_LIMIT",
    "MODULUS_LIMIT",
    "CosetAction",
    "CuspClass",
    "CuspTable",
    "FieldDescriptor",
    "coset_action",
    "is_member",
    "genus",
    "transversal",
    "cusps",
    "cusp_table",
    "cusp_field",
    "lift_to_coprime",
]


# ---------------------------------------------------------------------------
# membership


def is_member(m: Mat2, N: int, delta: DeltaSubgroup) -> bool:
    """True when m (or -m) lies in Gamma_Delta(N).

    Because -1 in Delta, membership of m and of -m are equivalent, so a
    single check covers the projective group.
    """
    return m.det == 1 and m.c % N == 0 and (m.a % N) in delta


# ---------------------------------------------------------------------------
# size limits

#: Levels above this bound are refused: the coset and cusp tables hold N^2
#: int64 entries, and building them for Delta = {+-1} at N = 1021 peaks at
#: 102 MB (tracemalloc).
LEVEL_LIMIT = 1024

#: Moduli m*N at or above this bound are refused, so that a sum of two
#: products of residues modulo m*N fits in an int64.
MODULUS_LIMIT = 2**31


def _modulus(m: int, N: int) -> int:
    """The modulus m*N of a fixed-point count, refused when too large."""
    M = m * N
    if M >= MODULUS_LIMIT:
        raise InputError(
            f"det*N = {m}*{N} is too large for the fixed-point count "
            f"(limit 2^31)"
        )
    return M


# ---------------------------------------------------------------------------
# coset action


@dataclass(frozen=True, eq=False)
class CosetAction:
    """Right action of SL2(Z) on the cosets of Gamma_Delta(N).

    ``positions[c*N + d]`` is the coset of the bottom-row pair (c, d), and
    -1 for pairs with gcd(c, d, N) != 1; ``cosets`` holds the canonical
    pair (c, d) of each coset as a row; ``sigma_S`` and ``sigma_T`` are the
    permutations induced by S = [[0,-1],[1,0]] and T = [[1,1],[0,1]].  All
    four are read-only int64 arrays.
    """

    N: int
    delta: DeltaSubgroup
    positions: np.ndarray
    cosets: np.ndarray
    sigma_S: np.ndarray
    sigma_T: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.cosets)

    def position(self, c: int, d: int) -> int:
        """Coset position of the bottom-row pair (c, d)."""
        pos = int(self.positions[(c % self.N) * self.N + d % self.N])
        if pos < 0:
            raise NotUnimodular(f"pair ({c},{d}) is not unimodular mod {self.N}")
        return pos

    def act(self, pos: int, m: Mat2) -> int:
        """Position of coset ``pos`` right-multiplied by the matrix m."""
        c, d = self.cosets[pos].tolist()
        return self.position(c * m.a + d * m.c, c * m.b + d * m.d)


def _read_only(*arrays: np.ndarray) -> None:
    # the arrays are shared by every caller through the caches
    for arr in arrays:
        arr.flags.writeable = False


@lru_cache(maxsize=None)
def coset_action(N: int, delta: DeltaSubgroup) -> CosetAction:
    """The coset action of SL2(Z) on Gamma_Delta(N)\\SL2(Z).

    Cosets are numbered in increasing order of their canonical pair index
    c*N + d.  Levels above ``LEVEL_LIMIT`` are refused with ``InputError``.
    """
    if delta.N != N:
        raise InputError(f"subgroup has level {delta.N}, expected {N}")
    if N > LEVEL_LIMIT:
        raise InputError(f"level {N} is too large for the coset tables (limit {LEVEL_LIMIT})")
    canon = canonical_pair_table(N, delta.elements)
    idx = np.arange(N * N, dtype=np.int64)
    unimodular = np.gcd(np.gcd(idx // N, idx % N), N) == 1
    keys, inverse = np.unique(canon[unimodular], return_inverse=True)
    positions = np.full(N * N, -1, dtype=np.int64)
    positions[unimodular] = inverse.ravel()
    c, d = keys // N, keys % N
    # Right action on row vectors: (c, d) * S = (d, -c), (c, d) * T = (c, c+d).
    sigma_S = positions[d * N + (-c) % N]
    sigma_T = positions[c * N + (c + d) % N]
    cosets = np.stack((c, d), axis=1)
    _read_only(positions, cosets, sigma_S, sigma_T)
    return CosetAction(N, delta, positions, cosets, sigma_S, sigma_T)


def _cycles(perm: list[int]) -> list[list[int]]:
    seen = [False] * len(perm)
    out: list[list[int]] = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc, k = [], start
        while not seen[k]:
            seen[k] = True
            cyc.append(k)
            k = perm[k]
        out.append(cyc)
    return out


@lru_cache(maxsize=None)
def genus(N: int, delta: DeltaSubgroup) -> int:
    """Genus of the modular curve attached to Gamma_Delta(N).

    Computed from the coset permutation action:
    g = 1 + mu/12 - e2/4 - e3/3 - einf/2, with e2 (resp. e3) the number of
    cosets fixed by S (resp. ST) and einf the number of T-cycles.  Raises
    :class:`NonIntegralGenus` when the formula does not produce an integer.
    """
    act = coset_action(N, delta)
    mu = act.degree
    k = np.arange(mu)
    e2 = int(np.count_nonzero(act.sigma_S == k))
    e3 = int(np.count_nonzero(act.sigma_T[act.sigma_S] == k))
    einf = len(_cycles(act.sigma_T.tolist()))
    num = 12 + mu - 3 * e2 - 4 * e3 - 6 * einf
    if num % 12:
        raise NonIntegralGenus(f"12g = {num} for N={N}, delta={delta.label}")
    return num // 12


# ---------------------------------------------------------------------------
# transversal


def lift_to_coprime(c, d, N: int):
    """Integers (c', d') = (c, d) mod N with gcd(c', d') = 1.

    ``c`` and ``d`` are ints or int64 arrays of one shape, with
    gcd(c, d, N) = 1 throughout.  With c, d reduced mod N, a non-coprime
    pair becomes (N, d) when c = 0 and (c, d + k*N) for the least k >= 1
    otherwise.
    """
    c = np.asarray(c, dtype=np.int64) % N
    d = np.asarray(d, dtype=np.int64) % N
    if np.any(np.gcd(np.gcd(c, d), N) != 1):
        raise NotUnimodular(f"some pair (c, d) has gcd(c, d, {N}) != 1")
    c = np.where((c == 0) & (d != 1), N, c)
    shared = np.gcd(c, d) != 1
    while shared.any():
        d = np.where(shared, d + N, d)
        shared = np.gcd(c, d) != 1
    if c.ndim == 0:
        return int(c), int(d)
    return c, d


@lru_cache(maxsize=None)
def transversal(N: int, delta: DeltaSubgroup) -> tuple[np.ndarray, ...]:
    """One SL2(Z) representative [[a, b], [c, d]] per coset, as four
    read-only int64 columns (a, b, c, d) indexed by coset position.

    The bottom row is the coprime lift (c, d) of the coset's canonical pair,
    and the top row (u, -v) solves u*d + v*c = 1 with the u of the extended
    Euclidean algorithm, run on all cosets at once; coset (0, 1) gets the
    identity.
    """
    act = coset_action(N, delta)
    c, d = lift_to_coprime(act.cosets[:, 0], act.cosets[:, 1], N)
    # extended Euclid on (d, c), stepped in the columns whose remainder is
    # not yet 0; it keeps u*d = r (mod c) and ends with u*d = 1 (mod c)
    r0, r1 = d.copy(), c.copy()
    u0, u1 = np.ones_like(d), np.zeros_like(d)
    live = np.flatnonzero(c)
    while live.size:
        q = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - q * r1[live]
        u0[live], u1[live] = u1[live], u0[live] - q * u1[live]
        live = live[r1[live] != 0]
    a = u0
    b = (a * d - 1) // np.where(c == 0, 1, c)  # only (0, 1) has c = 0
    if np.any(a * d - b * c != 1):
        raise DeterminantMismatch(f"a transversal matrix mod {N} has det != 1")
    _read_only(a, b, c, d)
    return a, b, c, d


# ---------------------------------------------------------------------------
# cusps


@dataclass(frozen=True)
class FieldDescriptor:
    """Field of definition of a cusp, as a subfield of Q(zeta_N)."""

    degree: int
    description: str

    @property
    def is_rational(self) -> bool:
        return self.degree == 1


@dataclass(frozen=True)
class CuspClass:
    """A cusp of the curve: a Gamma_Delta(N)-orbit of +-(x; y) mod N.

    ``rep`` is the least pair in the orbit, ``denominator`` is gcd(y, N)
    (an orbit invariant), ``width`` the length of the corresponding T-cycle,
    and ``galois_orbit_size`` the size of the orbit of this cusp under
    (Z/NZ)* acting by (x; y) -> (s*x; y).
    """

    N: int
    rep: tuple[int, int]
    denominator: int
    width: int
    galois_orbit_size: int

    @property
    def is_rational(self) -> bool:
        return self.galois_orbit_size == 1


@dataclass(frozen=True, eq=False)
class CuspTable:
    """Cusp classes plus a pair -> class lookup and the action of matrices.

    ``labels[x*N + y]`` is the class index of the cusp +-(x; y), and -1 for
    pairs with gcd(x, y, N) != 1; ``lifts`` holds coprime integer lifts
    (x, y) of the class representatives, as two int64 columns.
    """

    N: int
    delta: DeltaSubgroup
    classes: tuple[CuspClass, ...]
    labels: np.ndarray
    lifts: tuple[np.ndarray, np.ndarray]

    def class_of(self, x: int, y: int) -> int:
        """Class index of the cusp +-(x; y); requires gcd(x, y, N) = 1."""
        idx = int(self.labels[(x % self.N) * self.N + y % self.N])
        if idx < 0:
            raise NotUnimodular(f"({x};{y}) is not a cusp pair mod {self.N}")
        return idx

    def images(self, w: Mat2) -> np.ndarray:
        """Image class of every cusp class under the integer matrix w of
        nonzero determinant m: the class of (X; Y)/gcd(X, Y), where (X; Y) is
        w times the coprime lift of the class representative.  The gcd
        divides m, so all of it is computed modulo |m|*N in int64."""
        if w.det == 0:
            raise InputError(f"{w} is singular")
        M = _modulus(abs(w.det), self.N)
        x, y = (v % M for v in self.lifts)
        a, b, c, d = (e % M for e in w.entries())
        X = (a * x + b * y) % M
        Y = (c * x + d * y) % M
        g = np.gcd(np.gcd(X, Y), M)
        return self.labels[(X // g % self.N) * self.N + Y // g % self.N]


@lru_cache(maxsize=None)
def cusp_table(N: int, delta: DeltaSubgroup) -> CuspTable:
    """All cusps of the curve, with widths cross-checked against sigma_T.

    The reduction of Gamma_Delta(N) mod N is the group of matrices
    [[a, b], [0, a^-1]] with a in Delta and b arbitrary, so the cusp of
    (x; y) is the orbit {(a*(x + b*y), a^-1*y) : a in Delta, b mod N}
    (signs included via -1 in Delta).  Pairs are labelled orbit by orbit in
    increasing order of x*N + y, so each orbit starts at its least pair,
    which is the class representative.  Levels above ``LEVEL_LIMIT`` are
    refused by ``coset_action`` before anything is allocated.
    """
    act = coset_action(N, delta)
    unlabelled = act.positions >= 0
    labels = np.full(N * N, -1, dtype=np.int64)
    a = np.array(delta.elements, dtype=np.int64)[:, None]
    a_inv = np.array([pow(e, -1, N) for e in delta.elements], dtype=np.int64)[:, None]
    b = np.arange(N, dtype=np.int64)
    reps: list[tuple[int, int]] = []
    start = 0
    while True:
        start += int(np.argmax(unlabelled[start:]))
        if not unlabelled[start]:
            break
        x, y = divmod(start, N)
        orbit = (a * ((x + b * y) % N) % N) * N + a_inv * y % N
        labels[orbit] = len(reps)
        unlabelled[orbit] = False
        reps.append((x, y))

    cycles = _cycles(act.sigma_T.tolist())
    if len(cycles) != len(reps):
        raise CuspCountMismatch(
            f"{len(reps)} cusp orbits vs {len(cycles)} T-cycles for "
            f"N={N}, delta={delta.label}"
        )
    # the T-cycle through coset U is the cusp U(infinity) = (U.a; U.c)
    top, _, bottom, _ = transversal(N, delta)
    first = [cyc[0] for cyc in cycles]
    cusp_of_cycle = labels[(top[first] % N) * N + bottom[first] % N]
    if np.unique(cusp_of_cycle).size != len(cycles):
        raise CuspCountMismatch(
            f"two T-cycles map to one cusp for N={N}, delta={delta.label}"
        )
    widths = dict(zip(cusp_of_cycle.tolist(), map(len, cycles)))

    # Galois orbit of a cusp: the classes of (s*x; y) for the units s.
    units = np.array(unit_group(N).elements, dtype=np.int64)
    rx, ry = np.array(reps, dtype=np.int64).T
    images = np.sort(labels[(rx[:, None] * units % N) * N + ry[:, None]], axis=1)
    galois = 1 + np.count_nonzero(np.diff(images, axis=1), axis=1)

    classes = tuple(
        CuspClass(
            N=N,
            rep=(x, y),
            denominator=math.gcd(y, N) if y % N else N,
            width=widths[k],
            galois_orbit_size=int(galois[k]),
        )
        for k, (x, y) in enumerate(reps)
    )
    lifts = lift_to_coprime(rx, ry, N)
    _read_only(labels, *lifts)
    return CuspTable(N, delta, classes, labels, lifts)


def cusps(N: int, delta: DeltaSubgroup) -> tuple[CuspClass, ...]:
    """The cusps of the curve attached to (N, Delta)."""
    return cusp_table(N, delta).classes


def cusp_field(N: int, delta: DeltaSubgroup, cusp: CuspClass) -> FieldDescriptor:
    """Field of definition of a cusp inside Q(zeta_N).

    The degree always equals the cusp's Galois orbit size.  When the
    denominator d satisfies gcd(d, N/d) = 1 the field is the subfield of
    Q(zeta_d) fixed by Delta^(d) = {a mod d : a in Delta, a = 1 mod N/d};
    both routes are computed and must agree.
    """
    degree = cusp.galois_orbit_size
    d = cusp.denominator
    if math.gcd(d, N // d) == 1:
        nd = N // d
        delta_d = sorted({a % d for a in delta.elements if a % nd == 1 % nd})
        phi_d = unit_group(d).order if d > 1 else 1
        if phi_d % len(delta_d) or phi_d // len(delta_d) != degree:
            raise FieldDegreeMismatch(
                f"cusp field degree mismatch at N={N}, delta={delta.label}, "
                f"cusp={cusp.rep}: orbit {degree} vs index {phi_d}/{len(delta_d)}"
            )
        if degree == 1:
            return FieldDescriptor(1, "Q")
        if len(delta_d) == 1:
            return FieldDescriptor(degree, f"Q(zeta_{d})")
        fixer = ",".join(str(a) for a in delta_d)
        return FieldDescriptor(degree, f"Q(zeta_{d})^{{{fixer}}}")
    if degree == 1:
        return FieldDescriptor(1, "Q")
    return FieldDescriptor(degree, f"degree-{degree} subfield of Q(zeta_{N})")
