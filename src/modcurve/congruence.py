"""Coset actions, genus, transversals and cusps of Gamma_Delta(N).

Gamma_Delta(N) is the group of integer matrices [[a, b], [c, d]] of
determinant 1 with c = 0 (mod N) and (a mod N) in Delta, where Delta is a
subgroup of (Z/NZ)* containing -1.  Right cosets in SL2(Z) are in bijection
with bottom-row pairs (c, d) in (Z/NZ)^2 with gcd(c, d, N) = 1, taken up to
scaling by Delta; the canonical coset name is the lexicographically least
scaled pair.

The coset space is kept in one int64 form: the cosets, sigma_S, sigma_T,
the T-cycles and the transversal are arrays with one row per coset, read
from a table over the pair indices c*N + d that is dropped once they are
built.  The cusp table keeps one class per reduced pair (x mod gcd(y, N); y),
P(N) = sum_y gcd(y, N) of them, and reads every pair through one lookup.

The degree and the genus are counted from N and Delta (:func:`degree`,
:func:`genus`) without building any table; the coset action checks its own
count against them.  The coset actions, transversals and cusp tables are
cached per (N, Delta) until ``_clear_level_caches`` frees them, which the
classifier does after each level of a census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._kernels import canonical_pair_table
from .errors import (
    CuspCountMismatch,
    DeterminantMismatch,
    FieldDegreeMismatch,
    GenusMismatch,
    InputError,
    NonIntegralGenus,
    NotUnimodular,
)
from .matrices import Mat2
from .zmodn import DeltaSubgroup, divisors, prime_divisors, totient, units

__all__ = [
    "LEVEL_LIMIT",
    "MODULUS_LIMIT",
    "CosetAction",
    "CuspClass",
    "CuspTable",
    "FieldDescriptor",
    "coset_action",
    "degree",
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

#: Levels above this bound are refused: the coset action is read from an
#: N^2 int64 pair table, dropped once the action is built.  Building the coset
#: action and the cusp table for Delta = {+-1} at N = 1021 peaks at 67 MB and
#: keeps 17 MB (tracemalloc; 18 MB and 0.1 MB for the full Delta at
#: N = 1024).  ``degree`` and ``genus`` build no table but refuse the same
#: levels.
LEVEL_LIMIT = 1024

#: Moduli m*N at or above this bound are refused, so that a sum of two
#: products of residues modulo m*N fits in an int64.
MODULUS_LIMIT = 2**31


def _require_level(N: int) -> None:
    """Refuse a level below 1 or above ``LEVEL_LIMIT`` with ``InputError``."""
    if N < 1:
        raise InputError(f"level {N} is not positive")
    if N > LEVEL_LIMIT:
        raise InputError(f"level {N} is too large for the coset tables (limit {LEVEL_LIMIT})")


def _require_subgroup(N: int, delta: DeltaSubgroup) -> None:
    """Refuse a subgroup of another level, then a level out of range."""
    if delta.N != N:
        raise InputError(f"subgroup has level {delta.N}, expected {N}")
    _require_level(N)


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
# degree and genus by counting


def degree(N: int, delta: DeltaSubgroup) -> int:
    """Number of cosets of Gamma_Delta(N) in SL2(Z), psi(N)*phi(N)/|Delta|.

    The pairs (c, d) mod N with gcd(c, d, N) = 1 number
    N^2 * prod_{p | N} (1 - 1/p^2) = psi(N)*phi(N), and Delta scales them
    freely.  Levels above ``LEVEL_LIMIT`` are refused with ``InputError``.
    """
    _require_subgroup(N, delta)
    pairs = N * N
    for p in prime_divisors(N):
        pairs = pairs // (p * p) * (p * p - 1)
    return pairs // len(delta.elements)


@lru_cache(maxsize=None)
def genus(N: int, delta: DeltaSubgroup) -> int:
    """Genus of the modular curve attached to Gamma_Delta(N), by counting.

    12g = 12 + mu - 3*e2 - 4*e3 - 6*c with mu = ``degree(N, delta)``,
    e2 = phi(N) * #{a in Delta : a^2 = -1} / |Delta|,
    e3 = phi(N) * #{a in Delta : a^2 - a + 1 = 0} / |Delta| (mod N) and
    c = sum_{d | N} phi(d)*phi(N/d) / |Delta mod lcm(d, N/d)| cusps, where
    |Delta mod m| = |Delta| / #{a in Delta : a = 1 (mod m)}.  No coset table
    is built, and only the integer is cached; :class:`NonIntegralGenus` is
    raised on a remainder, and levels above ``LEVEL_LIMIT`` are refused
    with ``InputError``.
    """
    mu = degree(N, delta)
    elems, order = delta.elements, len(delta.elements)
    phi = totient(N)
    # every term below is |Delta| times its term in 12g
    e2 = phi * sum((a * a + 1) % N == 0 for a in elems)
    e3 = phi * sum((a * a - a + 1) % N == 0 for a in elems)
    cusps = 0
    for d in divisors(N):
        m = math.lcm(d, N // d)
        cusps += totient(d) * totient(N // d) * sum(a % m == 1 % m for a in elems)
    num = (12 + mu) * order - 3 * e2 - 4 * e3 - 6 * cusps
    if num % (12 * order):
        raise NonIntegralGenus(f"12g = {num}/{order} for N={N}, delta={delta.label}")
    return num // (12 * order)


# ---------------------------------------------------------------------------
# coset action


@dataclass(frozen=True, eq=False)
class CosetAction:
    """The coset space Gamma_Delta(N)\\SL2(Z).

    ``cosets`` holds the canonical pair (c, d) of each coset as a row;
    ``sigma_S`` and ``sigma_T`` are the permutations induced by
    S = [[0,-1],[1,0]] and T = [[1,1],[0,1]]; ``cycle_starts`` is the least
    coset of every T-cycle, in increasing order, and ``cycle_widths`` the
    length of each cycle.  All five are read-only int64 arrays of at most
    ``degree`` rows.
    """

    N: int
    delta: DeltaSubgroup
    cosets: np.ndarray
    sigma_S: np.ndarray
    sigma_T: np.ndarray
    cycle_starts: np.ndarray
    cycle_widths: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.cosets)


def _read_only(*arrays: np.ndarray) -> None:
    # the arrays are shared by every caller through the caches
    for arr in arrays:
        arr.flags.writeable = False


@lru_cache(maxsize=None)
def coset_action(N: int, delta: DeltaSubgroup) -> CosetAction:
    """The coset action of SL2(Z) on Gamma_Delta(N)\\SL2(Z).

    Cosets are numbered in increasing order of their canonical pair index
    c*N + d.  As a check, the genus is read from the action too,
    12g = 12 + mu - 3*e2 - 4*e3 - 6*einf with e2 (resp. e3) the number of
    cosets fixed by S (resp. ST) and einf the number of T-cycles;
    :class:`GenusMismatch` is raised when mu or 12g differs from
    :func:`degree` or :func:`genus`.  Levels above ``LEVEL_LIMIT`` are
    refused with ``InputError``.
    """
    _require_subgroup(N, delta)
    canon = canonical_pair_table(N, delta.elements)
    # the canonical pairs are the fixed points of the table; scaling by a
    # unit keeps gcd(c, d, N), so a non-unimodular pair has a canonical
    # pair that is not a key and gets rank -1
    fixed = np.flatnonzero(canon == np.arange(N * N, dtype=np.int64))
    keys = fixed[np.gcd(np.gcd(fixed // N, fixed % N), N) == 1]
    rank = np.full(N * N, -1, dtype=np.int64)
    rank[keys] = np.arange(keys.size, dtype=np.int64)
    c, d = keys // N, keys % N
    # Right action on row vectors: (c, d) * S = (d, -c), (c, d) * T = (c, c+d).
    sigma_S = rank[canon[d * N + (-c) % N]]
    sigma_T = rank[canon[c * N + (c + d) % N]]
    cosets = np.stack((c, d), axis=1)
    mu = keys.size
    k = np.arange(mu)
    e2 = int(np.count_nonzero(sigma_S == k))
    e3 = int(np.count_nonzero(sigma_T[sigma_S] == k))
    starts, widths = _t_cycles(sigma_T, N)
    num = 12 + mu - 3 * e2 - 4 * e3 - 6 * len(starts)
    if mu != degree(N, delta) or num != 12 * genus(N, delta):
        raise GenusMismatch(
            f"the coset action gives mu = {mu}, 12g = {num} for N={N}, "
            f"delta={delta.label}, against the counting formulas"
        )
    _read_only(cosets, sigma_S, sigma_T, starts, widths)
    return CosetAction(N, delta, cosets, sigma_S, sigma_T, starts, widths)


def _t_cycles(sigma_T: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, widths)``: the least coset of every T-cycle, in increasing
    order, and the length of each cycle.

    Each coset is labelled by the least coset of its cycle, found by pointer
    doubling over sigma_T: after j steps a label is the least of the 2^j
    cosets that follow it, and every cycle length divides N because T^N
    lies in Gamma_Delta(N).
    """
    label = np.arange(len(sigma_T), dtype=np.int64)
    step = sigma_T
    for _ in range((N - 1).bit_length()):  # until 2^j >= N
        np.minimum(label, label[step], out=label)
        step = step[step]
    starts = np.flatnonzero(label == np.arange(len(sigma_T)))
    return starts, np.bincount(label)[starts]


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

    ``rank[offset[y] + x mod gcd(y, N)]`` is the class index of the cusp
    +-(x; y), one entry per reduced pair (-1 off the cusp pairs), and
    gcd(y, N) = offset[y + 1] - offset[y]; read both through :meth:`class_of`.
    ``lifts`` holds coprime integer lifts (x, y) of the class representatives.
    """

    N: int
    delta: DeltaSubgroup
    classes: tuple[CuspClass, ...]
    rank: np.ndarray
    offset: np.ndarray
    lifts: tuple[np.ndarray, np.ndarray]

    def class_of(self, x, y):
        """Class index of the cusp +-(x; y), an int for ints and an int64 array
        for int64 arrays; NotUnimodular when some gcd(x, y, N) != 1."""
        y = np.asarray(y, dtype=np.int64) % self.N
        start = self.offset[y]
        idx = self.rank[start + np.asarray(x, dtype=np.int64) % (self.offset[y + 1] - start)]
        if np.any(idx < 0):
            raise NotUnimodular(f"some pair (x; y) has gcd(x, y, {self.N}) != 1")
        return int(idx) if idx.ndim == 0 else idx

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
        return self.class_of(X // g, Y // g)


def _cusp_labels(N: int, delta: DeltaSubgroup) -> tuple[np.ndarray, ...]:
    """``(rank, offset, keys)``: the class of every reduced pair (-1 off the
    cusp pairs), the position of the first reduced pair of every y (and P(N)
    at y = N), and the least pair index x*N + y of every class, in order.

    The orbit of (x; y) is {(a*x + k*g, a^-1*y) : a in Delta, k in Z} with
    g = gcd(y, N), so it is the Delta-orbit of the reduced pair (x mod g; y)
    under a.(x'; y) = (a*x' mod g; a^-1*y mod N), and its least pair is
    the least (a*x' mod g)*N + a^-1*y mod N.  The P(N) = sum_y gcd(y, N)
    reduced pairs are laid out y by y, (x'; y) at offset[y] + x'; the scaled
    pairs are compared in blocks of Delta of at most 2^18 cells.
    """
    residues = np.arange(N, dtype=np.int64)
    g = np.gcd(residues, N)  # gcd(0, N) = N
    offset = np.cumsum(np.append(0, g))
    ry = np.repeat(residues, g)
    rg = np.repeat(g, g)
    rx = np.arange(ry.size, dtype=np.int64) - np.repeat(offset[:-1], g)
    a = np.array(delta.elements, dtype=np.int64)
    a_inv = np.array([pow(e, -1, N) for e in delta.elements], dtype=np.int64)
    least = np.full(ry.size, N * N, dtype=np.int64)
    step = max(1, (1 << 18) // ry.size)
    for lo in range(0, a.size, step):
        cand = np.multiply.outer(a[lo:lo + step], rx)
        cand %= rg
        cand *= N
        second = np.multiply.outer(a_inv[lo:lo + step], ry)
        second %= N
        cand += second
        np.minimum(least, cand.min(axis=0), out=least)
    # the least pair of an orbit is reduced; gcd(x', g) = gcd(x, y, N)
    own = rx * N + ry
    cusp_pair = np.gcd(rx, rg) == 1
    keys = np.sort(own[(least == own) & cusp_pair])
    rank = np.where(cusp_pair, np.searchsorted(keys, least), -1)
    return rank, offset, keys


@lru_cache(maxsize=None)
def cusp_table(N: int, delta: DeltaSubgroup) -> CuspTable:
    """All cusps of the curve, with widths cross-checked against sigma_T.

    The reduction of Gamma_Delta(N) mod N is the group of matrices
    [[a, b], [0, a^-1]] with a in Delta and b arbitrary, so the cusp of
    (x; y) is the orbit {(a*(x + b*y), a^-1*y) : a in Delta, b mod N}
    (signs included via -1 in Delta).  Every orbit is named by its least
    pair, the class representative, and the classes are numbered in
    increasing order of x*N + y of their representatives (see
    ``_cusp_labels``).  The orbit count must equal the number of T-cycles.
    Levels above ``LEVEL_LIMIT`` are refused by ``coset_action`` before
    anything is allocated.
    """
    act = coset_action(N, delta)
    rank, offset, keys = _cusp_labels(N, delta)
    rx, ry = keys // N, keys % N
    lifts = lift_to_coprime(rx, ry, N)
    _read_only(rank, offset, *lifts)
    table = CuspTable(N, delta, (), rank, offset, lifts)

    if len(act.cycle_starts) != len(keys):
        raise CuspCountMismatch(
            f"{len(keys)} cusp orbits vs {len(act.cycle_starts)} T-cycles for "
            f"N={N}, delta={delta.label}"
        )
    # the T-cycle through coset (c, d) is the cusp (a; c) of any
    # [[a, b], [c, d]] in SL2(Z), and a = d^-1 mod gcd(c, N) names it
    c, d = act.cosets[act.cycle_starts].T
    a = [pow(di, -1, math.gcd(ci, N)) for ci, di in zip(c.tolist(), d.tolist())]
    cusp_of_cycle = table.class_of(np.array(a, dtype=np.int64), c)
    ordered = np.sort(cusp_of_cycle)
    if (ordered[1:] == ordered[:-1]).any():
        raise CuspCountMismatch(
            f"two T-cycles map to one cusp for N={N}, delta={delta.label}"
        )
    widths = np.empty(len(keys), dtype=np.int64)
    widths[cusp_of_cycle] = act.cycle_widths

    # Galois orbit of a cusp: the classes of (s*x; y) for the units s.
    unit_array = np.array(units(N), dtype=np.int64)
    images = np.sort(table.class_of(rx[:, None] * unit_array, ry[:, None]), axis=1)
    galois = 1 + np.count_nonzero(np.diff(images, axis=1), axis=1)

    classes = tuple(
        CuspClass(
            N=N,
            rep=(x, y),
            denominator=math.gcd(y, N) if y % N else N,
            width=w,
            galois_orbit_size=s,
        )
        for x, y, w, s in zip(rx.tolist(), ry.tolist(), widths.tolist(), galois.tolist())
    )
    return replace(table, classes=classes)


def cusps(N: int, delta: DeltaSubgroup) -> tuple[CuspClass, ...]:
    """The cusps of the curve attached to (N, Delta)."""
    return cusp_table(N, delta).classes


# The caches that hold a level's coset tables, bound here so that clearing
# them does not go through the module attributes, which a profiler may wrap.
_LEVEL_CACHES = (coset_action, transversal, cusp_table)


def _clear_level_caches() -> None:
    """Free every cached coset action, transversal and cusp table."""
    for cache in _LEVEL_CACHES:
        cache.cache_clear()


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
        phi_d = totient(d)
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
