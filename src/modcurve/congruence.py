"""Coset actions, genus, transversals and cusps of Gamma_Delta(N).

Gamma_Delta(N) is the group of integer matrices [[a, b], [c, d]] of
determinant 1 with c = 0 (mod N) and (a mod N) in Delta, where Delta is a
subgroup of (Z/NZ)* containing -1.  Right cosets in SL2(Z) are in bijection
with bottom-row pairs (c, d) in (Z/NZ)^2 with gcd(c, d, N) = 1, taken up to
scaling by Delta; the canonical coset name is the lexicographically least
scaled pair.
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
from .matrices import IDENTITY, Mat2
from .zmodn import DeltaSubgroup, unit_group

__all__ = [
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
# coset action


@dataclass(frozen=True)
class CosetAction:
    """Right action of SL2(Z) on the cosets of Gamma_Delta(N).

    ``cosets`` lists canonical bottom-row pairs; ``sigma_S`` and ``sigma_T``
    are the permutations induced by the generators S = [[0,-1],[1,0]] and
    T = [[1,1],[0,1]] (as position -> position maps).
    """

    N: int
    delta: DeltaSubgroup
    cosets: tuple[tuple[int, int], ...]
    sigma_S: tuple[int, ...]
    sigma_T: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.cosets)

    def position(self, c: int, d: int) -> int:
        """Coset position of the bottom-row pair (c, d)."""
        tab = _pair_tables(self.N, self.delta)
        key = int(tab.canon[(c % self.N) * self.N + d % self.N])
        pos = tab.position.get(key)
        if pos is None:
            raise NotUnimodular(f"pair ({c},{d}) is not unimodular mod {self.N}")
        return pos

    def act(self, pos: int, m: Mat2) -> int:
        """Position of coset ``pos`` right-multiplied by the matrix m."""
        c, d = self.cosets[pos]
        return self.position(c * m.a + d * m.c, c * m.b + d * m.d)


@dataclass(frozen=True)
class _PairTables:
    canon: np.ndarray
    position: dict[int, int]


@lru_cache(maxsize=None)
def _pair_tables(N: int, delta: DeltaSubgroup) -> _PairTables:
    canon = canonical_pair_table(N, delta.elements)
    idx = np.arange(N * N, dtype=np.int64)
    ok = np.gcd(np.gcd(idx // N, idx % N), N) == 1
    reps = np.unique(canon[ok])
    position = {int(v): k for k, v in enumerate(reps)}
    return _PairTables(canon, position)


@lru_cache(maxsize=None)
def coset_action(N: int, delta: DeltaSubgroup) -> CosetAction:
    """The coset action of SL2(Z) on Gamma_Delta(N)\\SL2(Z)."""
    if delta.N != N:
        raise InputError(f"subgroup has level {delta.N}, expected {N}")
    tab = _pair_tables(N, delta)
    reps = sorted(tab.position, key=tab.position.get)
    cosets = tuple((r // N, r % N) for r in reps)
    canon = tab.canon

    def perm(fc, fd) -> tuple[int, ...]:
        out = []
        for c, d in cosets:
            key = int(canon[(fc(c, d) % N) * N + fd(c, d) % N])
            out.append(tab.position[key])
        return tuple(out)

    # Right action on row vectors: (c, d) * S = (d, -c), (c, d) * T = (c, c+d).
    sigma_S = perm(lambda c, d: d, lambda c, d: -c)
    sigma_T = perm(lambda c, d: c, lambda c, d: c + d)
    return CosetAction(N, delta, cosets, sigma_S, sigma_T)


def _cycles(perm: tuple[int, ...]) -> list[list[int]]:
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
    e2 = sum(1 for k, img in enumerate(act.sigma_S) if img == k)
    e3 = sum(1 for k in range(mu) if act.sigma_T[act.sigma_S[k]] == k)
    einf = len(_cycles(act.sigma_T))
    num = 12 + mu - 3 * e2 - 4 * e3 - 6 * einf
    if num % 12:
        raise NonIntegralGenus(f"12g = {num} for N={N}, delta={delta.label}")
    return num // 12


# ---------------------------------------------------------------------------
# transversal


def lift_to_coprime(c: int, d: int, N: int) -> tuple[int, int]:
    """Integers (c', d') = (c, d) mod N with gcd(c', d') = 1.

    Requires gcd(c, d, N) = 1.
    """
    c %= N
    d %= N
    if math.gcd(math.gcd(c, d), N) != 1:
        raise NotUnimodular(f"gcd({c}, {d}, {N}) != 1")
    if math.gcd(c, d) == 1:
        return c, d
    if c == 0:
        return N, d
    if d == 0:
        return c, N
    k = 0
    while math.gcd(c, d + k * N) != 1:
        k += 1
    return c, d + k * N


def _bottom_row_to_matrix(c: int, d: int, N: int) -> Mat2:
    """An SL2(Z) matrix whose bottom row is = (c, d) mod N."""
    if (c % N, d % N) == (0, 1 % N):
        return IDENTITY
    c1, d1 = lift_to_coprime(c, d, N)
    # Bezout: u*d1 + v*c1 = 1 gives [[u, -v], [c1, d1]] in SL2(Z).
    u, v = _bezout(d1, c1)
    return Mat2(u, -v, c1, d1)


def _bezout(x: int, y: int) -> tuple[int, int]:
    """(u, v) with u*x + v*y = gcd(x, y)."""
    old_r, r = x, y
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_u, old_v = -old_u, -old_v
    return old_u, old_v


@lru_cache(maxsize=None)
def transversal(N: int, delta: DeltaSubgroup) -> tuple[Mat2, ...]:
    """One SL2(Z) representative per coset, the identity for coset (0, 1)."""
    act = coset_action(N, delta)
    mats = []
    for c, d in act.cosets:
        m = _bottom_row_to_matrix(c, d, N)
        if m.det != 1:
            raise DeterminantMismatch(f"transversal matrix {m} for ({c},{d}) mod {N}")
        mats.append(m)
    return tuple(mats)


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
    """Cusp classes plus a pair -> class lookup and matrix actions.

    ``labels[x*N + y]`` is the class index of the cusp +-(x; y), and -1 for
    pairs with gcd(x, y, N) != 1.
    """

    N: int
    delta: DeltaSubgroup
    classes: tuple[CuspClass, ...]
    labels: np.ndarray

    def class_of(self, x: int, y: int) -> int:
        """Class index of the cusp +-(x; y); requires gcd(x, y, N) = 1."""
        idx = int(self.labels[(x % self.N) * self.N + y % self.N])
        if idx < 0:
            raise NotUnimodular(f"({x};{y}) is not a cusp pair mod {self.N}")
        return idx

    def act_matrix(self, m: Mat2, class_index: int) -> int:
        """Image class of a cusp under an integer matrix of nonzero det."""
        x, y = self.classes[class_index].rep
        x1, y1 = lift_to_coprime(x, y, self.N)
        X, Y = m.apply_to_column(x1, y1)
        g = math.gcd(X, Y)
        if g == 0:
            raise InputError(f"{m} is singular")
        return self.class_of(X // g, Y // g)


@lru_cache(maxsize=None)
def cusp_table(N: int, delta: DeltaSubgroup) -> CuspTable:
    """All cusps of the curve, with widths cross-checked against sigma_T.

    The reduction of Gamma_Delta(N) mod N is the group of matrices
    [[a, b], [0, a^-1]] with a in Delta and b arbitrary, so the cusp of
    (x; y) is the orbit {(a*(x + b*y), a^-1*y) : a in Delta, b mod N}
    (signs included via -1 in Delta).  Pairs are labelled orbit by orbit in
    increasing order of x*N + y, so each orbit starts at its least pair,
    which is the class representative.
    """
    act = coset_action(N, delta)
    idx = np.arange(N * N, dtype=np.int64)
    unlabelled = np.gcd(np.gcd(idx // N, idx % N), N) == 1
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
    labels.flags.writeable = False  # shared by every caller through the cache

    cycles = _cycles(act.sigma_T)
    if len(cycles) != len(reps):
        raise CuspCountMismatch(
            f"{len(reps)} cusp orbits vs {len(cycles)} T-cycles for "
            f"N={N}, delta={delta.label}"
        )
    trans = transversal(N, delta)
    widths: dict[int, int] = {}
    for cyc in cycles:
        u = trans[cyc[0]]
        k = int(labels[(u.a % N) * N + u.c % N])
        if k in widths:
            raise CuspCountMismatch(
                f"two T-cycles map to one cusp for N={N}, delta={delta.label}"
            )
        widths[k] = len(cyc)

    # Galois orbit of a cusp: the classes of (s*x; y) for the units s.
    units = np.array(unit_group(N).elements, dtype=np.int64)
    rx = np.array([x for x, _ in reps], dtype=np.int64)[:, None]
    ry = np.array([y for _, y in reps], dtype=np.int64)[:, None]
    images = np.sort(labels[(rx * units % N) * N + ry], axis=1)
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
    return CuspTable(N, delta, classes, labels)


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
