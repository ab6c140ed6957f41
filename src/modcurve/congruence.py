"""Coset actions, genus, transversals and cusps of Gamma_Delta(N).

Gamma_Delta(N) is the group of integer matrices [[a, b], [c, d]] of
determinant 1 with c = 0 (mod N) and (a mod N) in Delta, where Delta is a
subgroup of (Z/NZ)* containing -1.  Right cosets in SL2(Z) are in bijection
with bottom-row pairs (c, d) in (Z/NZ)^2 with gcd(c, d, N) = 1, taken up to
scaling by Delta; the canonical coset name is the lexicographically least
scaled pair.

The coset space is kept in one int64 form: the cosets, sigma_S, sigma_T,
the T-cycles and the transversal are arrays with one row per coset.  The
cosets are built from the canonical rows (``_kernels.canonical_rows``), and
every pair (c, d) is read through a pair -> coset index of tau(N) x N
cells, ``CosetAction.coset_index``; no table over the N^2 pairs is built.
The cusp table keeps one class per reduced pair (x mod gcd(y, N); y),
P(N) = sum_y gcd(y, N) of them, and reads every pair through one lookup.

Every function here reads the level N from ``delta.N``.  The branch counts
(the degree mu, the elliptic points e2 and e3 and the cusps) and the genus
are counted from Delta (:func:`branch_counts`, :func:`degree`,
:func:`genus`) without building any table; the coset action and the cusp
table check their own counts against them one by one.  The Galois orbit
size of the cusps of each denominator is read from Delta the same way
(:func:`cusp_orbit_sizes`), which is all the classifier's cusp-rationality
rule needs beside X_0(N)'s cusp table.  The coset actions, transversals,
cusp tables and diamond actions on the cusps are cached per Delta until
``_clear_level_caches`` frees them, which the classifier does after each
level of a census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._kernels import _BLOCK, canonical_rows
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
from .zmodn import DeltaSubgroup, divisors, is_hall_divisor, prime_divisors, totient, units

__all__ = [
    "LEVEL_LIMIT",
    "MODULUS_LIMIT",
    "CosetAction",
    "CuspClass",
    "CuspTable",
    "FieldDescriptor",
    "branch_counts",
    "coset_action",
    "degree",
    "is_member",
    "genus",
    "transversal",
    "cusps",
    "cusp_table",
    "cusp_diamonds",
    "cusp_field",
    "cusp_orbit_sizes",
    "lift_to_coprime",
]


# ---------------------------------------------------------------------------
# membership


def is_member(m: Mat2, delta: DeltaSubgroup) -> bool:
    """True when m (or -m) lies in Gamma_Delta(N), N = ``delta.N``.

    Because -1 in Delta, membership of m and of -m are equivalent, so a
    single check covers the projective group.
    """
    return m.det == 1 and m.c % delta.N == 0 and (m.a % delta.N) in delta


# ---------------------------------------------------------------------------
# size limits

#: Levels above this bound are refused: the coset action keeps four int64
#: entries per coset, and Delta = {+-1} has about N^2/2 cosets.  Building the
#: coset action and the cusp table for Delta = {+-1} at N = 1021 peaks at
#: 40 MB and keeps 16 MB (tracemalloc; 6 MB and 0.2 MB for the full Delta
#: at N = 1024).  With those built, the diamond action on the cusps
#: (``cusp_diamonds``) peaks at 20 MB and keeps 4 MB, the transversal peaks
#: at 44 MB and keeps 16 MB, and route B's count of the fixed points of the
#: identity (``classify.coset_fixed_points``) then peaks at 44 MB.  The
#: classifier counts the diamonds from ``branch_counts`` with no table, so
#: classifying X_{D1}(1021) (|Delta| = 4) peaks at 6 MB and X_{D1}(1024) at
#: 43 MB.  ``branch_counts``, ``degree`` and ``genus`` build no table but
#: refuse the same levels.
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
# branch counts, degree and genus by counting


@lru_cache(maxsize=None)
def branch_counts(delta: DeltaSubgroup) -> tuple[int, int, int, int]:
    """``(mu, e2, e3, cusps)`` of X_Delta(N), by counting: the degree of
    X_Delta(N) -> X(1), the elliptic points of order 2 and 3 and the cusps.

    The pairs (c, d) mod N with gcd(c, d, N) = 1 number
    N^2 * prod_{p | N} (1 - 1/p^2) = psi(N)*phi(N), and Delta scales them
    freely, so mu = psi(N)*phi(N)/|Delta|.  Then
    e2 = phi(N) * #{a in Delta : a^2 = -1} / |Delta|,
    e3 = phi(N) * #{a in Delta : a^2 - a + 1 = 0} / |Delta| (mod N) and
    cusps = sum_{d | N} phi(d)*phi(N/d) / |Delta mod lcm(d, N/d)|, where
    |Delta mod m| = |Delta| / #{a in Delta : a = 1 (mod m)} (Shimura,
    *Introduction to the Arithmetic Theory of Automorphic Functions*, 1.5;
    Diamond-Shurman 3.1).  The points of X_Delta(N) above i, rho and the
    cusp of X(1) number (mu + e2)/2, (mu + 2*e3)/3 and ``cusps``.  No coset
    table is built and only the four ints are cached;
    :class:`NonIntegralGenus` is raised on a remainder, and levels above
    ``LEVEL_LIMIT`` are refused with ``InputError``.
    """
    N = delta.N
    _require_level(N)
    elems, order = delta.elements, len(delta.elements)
    phi = totient(N)
    # every term below is |Delta| times its count
    pairs = N * N
    for p in prime_divisors(N):
        pairs = pairs // (p * p) * (p * p - 1)
    e2 = phi * sum((a * a + 1) % N == 0 for a in elems)
    e3 = phi * sum((a * a - a + 1) % N == 0 for a in elems)
    cusps = sum(term for _, term in _cusp_terms(delta))
    terms = (pairs, e2, e3, cusps)
    if any(t % order for t in terms):
        raise NonIntegralGenus(
            f"a branch count of N={N}, delta={delta.label} is not a multiple of |Delta| = {order}"
        )
    return tuple(t // order for t in terms)


def _cusp_terms(delta: DeltaSubgroup) -> tuple[tuple[int, int], ...]:
    """``(g, term)`` for every divisor g of N, where term is |Delta| times
    the number of cusps of X_Delta(N) of denominator g:
    phi(g)*phi(N/g) * #{a in Delta : a = 1 (mod lcm(g, N/g))}, the g-th
    term of the cusp count of :func:`branch_counts`."""
    N = delta.N
    terms = []
    for g in divisors(N):
        m = math.lcm(g, N // g)
        fixed = sum(a % m == 1 % m for a in delta.elements)
        terms.append((g, totient(g) * totient(N // g) * fixed))
    return tuple(terms)


def degree(delta: DeltaSubgroup) -> int:
    """Number of cosets of Gamma_Delta(N) in SL2(Z), psi(N)*phi(N)/|Delta|
    (see :func:`branch_counts`)."""
    return branch_counts(delta)[0]


def genus(delta: DeltaSubgroup) -> int:
    """Genus of the modular curve attached to Gamma_Delta(N), by counting:
    12g = 12 + mu - 3*e2 - 4*e3 - 6*cusps over :func:`branch_counts`.
    :class:`NonIntegralGenus` is raised on a remainder, and levels above
    ``LEVEL_LIMIT`` are refused with ``InputError``.
    """
    mu, e2, e3, cusps = branch_counts(delta)
    num = 12 + mu - 3 * e2 - 4 * e3 - 6 * cusps
    if num % 12:
        raise NonIntegralGenus(f"12g = {num} for N={delta.N}, delta={delta.label}")
    return num // 12


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
    ``degree`` rows.  The pair -> coset index is kept in ``row_start``,
    ``row_scale`` and ``row_divisor`` (one entry per residue c mod N) and
    ``column_rank`` (one row per divisor of N); read it through
    :meth:`coset_index`.
    """

    delta: DeltaSubgroup
    cosets: np.ndarray
    sigma_S: np.ndarray
    sigma_T: np.ndarray
    cycle_starts: np.ndarray
    cycle_widths: np.ndarray
    row_start: np.ndarray
    row_scale: np.ndarray
    row_divisor: np.ndarray
    column_rank: np.ndarray

    @property
    def N(self) -> int:
        return self.delta.N

    @property
    def degree(self) -> int:
        return len(self.cosets)

    def coset_index(self, c, d):
        """Position of the coset of the pair (c, d) mod N, an int for ints
        and an int64 array for int64 arrays; NotUnimodular when some
        gcd(c, d, N) != 1."""
        N = self.N
        c = np.asarray(c, dtype=np.int64) % N
        d = np.asarray(d, dtype=np.int64) % N
        rank = self.column_rank[self.row_divisor[c], self.row_scale[c] * d % N]
        if (rank < 0).any():
            raise NotUnimodular(f"some pair (c, d) has gcd(c, d, {N}) != 1")
        idx = self.row_start[c] + rank
        return int(idx) if idx.ndim == 0 else idx


def _read_only(*arrays: np.ndarray) -> None:
    # the arrays are shared by every caller through the caches
    for arr in arrays:
        arr.flags.writeable = False


@lru_cache(maxsize=None)
def coset_action(delta: DeltaSubgroup) -> CosetAction:
    """The coset action of SL2(Z) on Gamma_Delta(N)\\SL2(Z).

    Cosets are numbered in increasing order of their canonical pair index
    c*N + d.  As a check, the branch counts and the genus are read from the
    action too: mu cosets, e2 (resp. e3) of them fixed by S (resp. ST),
    einf T-cycles and 12g = 12 + mu - 3*e2 - 4*e3 - 6*einf;
    :class:`GenusMismatch` is raised when mu or 12g differs from
    :func:`degree` or :func:`genus`, or e2, e3 or einf from
    :func:`branch_counts`.  Levels above ``LEVEL_LIMIT`` are refused with
    ``InputError``.
    """
    N = delta.N
    _require_level(N)
    cosets, *index = canonical_rows(N, delta.elements)
    empty = np.empty(0, dtype=np.int64)
    act = CosetAction(delta, cosets, empty, empty, empty, empty, *index)
    # Right action on row vectors: (c, d) * S = (d, -c), (c, d) * T = (c, c+d).
    c, d = cosets.T
    sigma_S = act.coset_index(d, -c)
    sigma_T = act.coset_index(c, c + d)
    mu = len(cosets)
    k = np.arange(mu)
    e2 = int(np.count_nonzero(sigma_S == k))
    e3 = int(np.count_nonzero(sigma_T[sigma_S] == k))
    starts, widths = _t_cycles(sigma_T, N)
    num = 12 + mu - 3 * e2 - 4 * e3 - 6 * len(starts)
    if (mu != degree(delta) or num != 12 * genus(delta)
            or (e2, e3, len(starts)) != branch_counts(delta)[1:]):
        raise GenusMismatch(
            f"the coset action gives mu = {mu}, e2 = {e2}, e3 = {e3}, "
            f"{len(starts)} T-cycles and 12g = {num} for N={N}, "
            f"delta={delta.label}, against the counting formulas"
        )
    _read_only(cosets, sigma_S, sigma_T, starts, widths, *index)
    return replace(act, sigma_S=sigma_S, sigma_T=sigma_T, cycle_starts=starts, cycle_widths=widths)


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
def transversal(delta: DeltaSubgroup) -> tuple[np.ndarray, ...]:
    """One SL2(Z) representative [[a, b], [c, d]] per coset, as four
    read-only int64 columns (a, b, c, d) indexed by coset position.

    The bottom row is the coprime lift (c, d) of the coset's canonical pair,
    and the top row (u, -v) solves u*d + v*c = 1 with the u of the extended
    Euclidean algorithm, run on all cosets at once; coset (0, 1) gets the
    identity.
    """
    N, act = delta.N, coset_action(delta)
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

    delta: DeltaSubgroup
    classes: tuple[CuspClass, ...]
    rank: np.ndarray
    offset: np.ndarray
    lifts: tuple[np.ndarray, np.ndarray]

    @property
    def N(self) -> int:
        return self.delta.N

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


def _cusp_labels(delta: DeltaSubgroup) -> tuple[np.ndarray, ...]:
    """``(rank, offset, keys)``: the class of every reduced pair (-1 off the
    cusp pairs), the position of the first reduced pair of every y (and P(N)
    at y = N), and the least pair index x*N + y of every class, in order.

    The orbit of (x; y) is {(a*x + k*g, a^-1*y) : a in Delta, k in Z} with
    g = gcd(y, N), so it is the Delta-orbit of the reduced pair (x mod g; y)
    under a.(x'; y) = (a*x' mod g; a^-1*y mod N), and its least pair is
    the least (a*x' mod g)*N + a^-1*y mod N.  The P(N) = sum_y gcd(y, N)
    reduced pairs are laid out y by y, (x'; y) at offset[y] + x'; the scaled
    pairs are compared in blocks of Delta of at most ``_BLOCK`` cells.
    """
    N = delta.N
    residues = np.arange(N, dtype=np.int64)
    g = np.gcd(residues, N)  # gcd(0, N) = N
    offset = np.cumsum(np.append(0, g))
    ry = np.repeat(residues, g)
    rg = np.repeat(g, g)
    rx = np.arange(ry.size, dtype=np.int64) - np.repeat(offset[:-1], g)
    a = np.array(delta.elements, dtype=np.int64)
    a_inv = np.array([pow(e, -1, N) for e in delta.elements], dtype=np.int64)
    least = np.full(ry.size, N * N, dtype=np.int64)
    step = max(1, _BLOCK // ry.size)
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
def cusp_table(delta: DeltaSubgroup) -> CuspTable:
    """All cusps of the curve, with widths cross-checked against sigma_T.

    The reduction of Gamma_Delta(N) mod N is the group of matrices
    [[a, b], [0, a^-1]] with a in Delta and b arbitrary, so the cusp of
    (x; y) is the orbit {(a*(x + b*y), a^-1*y) : a in Delta, b mod N}
    (signs included via -1 in Delta).  Every orbit is named by its least
    pair, the class representative, and the classes are numbered in
    increasing order of x*N + y of their representatives (see
    ``_cusp_labels``).  The orbit count must equal the number of T-cycles
    and the cusp count of :func:`branch_counts`.  Levels above ``LEVEL_LIMIT`` are refused by ``coset_action`` before
    anything is allocated.
    """
    N, act = delta.N, coset_action(delta)
    rank, offset, keys = _cusp_labels(delta)
    rx, ry = keys // N, keys % N
    lifts = lift_to_coprime(rx, ry, N)
    _read_only(rank, offset, *lifts)
    table = CuspTable(delta, (), rank, offset, lifts)

    if len(act.cycle_starts) != len(keys) or branch_counts(delta)[3] != len(keys):
        raise CuspCountMismatch(
            f"{len(keys)} cusp orbits vs {len(act.cycle_starts)} T-cycles and "
            f"{branch_counts(delta)[3]} cusps counted for N={N}, delta={delta.label}"
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


def cusps(delta: DeltaSubgroup) -> tuple[CuspClass, ...]:
    """The cusps of the curve attached to Delta."""
    return cusp_table(delta).classes


@lru_cache(maxsize=None)
def cusp_diamonds(delta: DeltaSubgroup) -> np.ndarray:
    """The diamond action on the cusp classes of ``cusp_table(delta)``: the
    class of [b] * (cusp j) at [k, j], b the k-th of ``delta.coset_reps()``,
    as a read-only int64 array of ``delta.index`` rows.

    The diamond [b] = [[b, beta], [N, b^-1]] sends the pair (x; y) to
    (b*x + beta*y; b^-1*y), which lies in the cusp of (b*x; b^-1*y).
    """
    N, table = delta.N, cusp_table(delta)
    x, y = table.lifts
    reps = np.array(delta.coset_reps(), dtype=np.int64)
    inverses = np.array([pow(b, -1, N) for b in delta.coset_reps()], dtype=np.int64)
    images = table.class_of(reps[:, None] * x, inverses[:, None] * y)
    _read_only(images)
    return images


# The caches that hold a level's coset tables, bound here so that clearing
# them does not go through the module attributes, which a profiler may wrap.
_LEVEL_CACHES = (coset_action, transversal, cusp_table, cusp_diamonds)


def _clear_level_caches() -> None:
    """Free every cached coset action, transversal, cusp table and diamond
    action on the cusps."""
    for cache in _LEVEL_CACHES:
        cache.cache_clear()


def _galois_fixer(delta: DeltaSubgroup, g: int) -> list[int]:
    """K_g = {a mod g : a in Delta, a = 1 (mod N/g)}, sorted."""
    ng = delta.N // g
    return sorted({a % g for a in delta.elements if a % ng == 1 % ng})


def cusp_orbit_sizes(delta: DeltaSubgroup) -> tuple[tuple[int, int], ...]:
    """``(g, phi(g)/|K_g|)`` for every divisor g of N, N = ``delta.N``, with
    K_g = {a mod g : a in Delta, a = 1 (mod N/g)}: the Galois orbit size of
    every cusp of X_Delta(N) of denominator g, read from Delta alone in one
    pass per divisor.  The denominator g is rational for Delta when its
    size is 1.

    Proof.  A unit s sends the cusp +-(x; y) with g = gcd(y, N) to
    +-(s*x; y).  The cusp of (x; y) is {(a*(x + b*y), a^-1*y) : a in Delta,
    b mod N} (see :func:`cusp_table`), so (s*x; y) lies in it exactly when
    some a in Delta has a^-1*y = y (mod N), that is a = 1 (mod N/g), and
    a*x = s*x (mod g), as b*y runs over the multiples of g.  Since
    gcd(x, g) = gcd(x, y, N) = 1, x is a unit mod g and the second
    condition reads a = s (mod g).  So s fixes the cusp exactly when
    s mod g lies in K_g, the same subgroup for every cusp of denominator g,
    and as (Z/NZ)* maps onto (Z/gZ)* the orbit has phi(g)/|K_g| cusps.
    :class:`FieldDegreeMismatch` is raised if |K_g| does not divide phi(g).
    """
    sizes = []
    for g in divisors(delta.N):
        size, rest = divmod(totient(g), len(_galois_fixer(delta, g)))
        if rest:
            raise FieldDegreeMismatch(
                f"|K_{g}| does not divide phi({g}) for N={delta.N}, delta={delta.label}"
            )
        sizes.append((g, size))
    return tuple(sizes)


def cusp_field(delta: DeltaSubgroup, cusp: CuspClass) -> FieldDescriptor:
    """Field of definition of a cusp inside Q(zeta_N), N = ``delta.N``.

    The degree is the cusp's Galois orbit size, and it must equal the size
    that :func:`cusp_orbit_sizes` gives its denominator d:
    :class:`FieldDegreeMismatch` is raised otherwise.  When d satisfies
    gcd(d, N/d) = 1 the field is named as the subfield of Q(zeta_d) fixed
    by K_d = {a mod d : a in Delta, a = 1 mod N/d}.  A cusp of another
    level is refused with ``InputError``.
    """
    N = delta.N
    if cusp.N != N:
        raise InputError(f"cusp {cusp.rep} has level {cusp.N}, Delta has level {N}")
    degree = cusp.galois_orbit_size
    d = cusp.denominator
    size = dict(cusp_orbit_sizes(delta)).get(d)
    if size != degree:
        raise FieldDegreeMismatch(
            f"cusp field degree mismatch at N={N}, delta={delta.label}, "
            f"cusp={cusp.rep}: orbit {degree} vs {size} from the denominator {d}"
        )
    if degree == 1:
        return FieldDescriptor(1, "Q")
    if not is_hall_divisor(d, N):
        return FieldDescriptor(degree, f"degree-{degree} subfield of Q(zeta_{N})")
    delta_d = _galois_fixer(delta, d)
    if len(delta_d) == 1:
        return FieldDescriptor(degree, f"Q(zeta_{d})")
    fixer = ",".join(str(a) for a in delta_d)
    return FieldDescriptor(degree, f"Q(zeta_{d})^{{{fixer}}}")
