"""Scalar reference versions of the coset space, the fixed-point counters,
the cusp table, the cusp obstruction and the normalizer test.

The coset space (canonical pairs, sigma_S and sigma_T, the T-cycles and
the genus, the transversal and the action of matrices on cusps) is built
pair by pair with Python dicts and ``Mat2``, where the package keeps int64
arrays with one row per coset.  ``position`` and ``act`` map a pair and a
matrix to a coset through the oracle's own table over all pairs, which the
package does not keep.
The fixed-point counters and the cusp table are the per-coset ``Mat2``
loops that the package replaced with int64 arithmetic modulo m*N; the
normalizer test conjugates every Schreier generator of Gamma_Delta(N),
where the package tests |Delta| + 2 generators modulo m*N.  The pair
table makes one numpy pass over all N^2 pairs per element of Delta, and
``_cycles`` walks a permutation in Python, where the package builds the
table in one block per divisor of N and labels the T-cycles by pointer
doubling.  ``cusp_labels`` labels the cusp orbits one at a time, where
the package finds the least pair of every orbit at once from the reduced
pairs (x mod gcd(y, N); y), and ``cusp_classes`` names the cusp of each
T-cycle through the transversal, where the package names the cycle through
the coset (c, d) by the pair (d^-1 mod gcd(c, N); c).  ``cusp_obstruction``
walks the cusp classes of X_Delta(N) one at a time, with one ``class_of``
lookup each and one scan of the fibre per rational cusp, where the
classifier projects every cusp to X_0(N) at once and compares two boolean
coverage arrays.
``class_representative`` scans for one Gross-Kohnen-Zagier class at a
time, where ``fixed_points_X0`` walks each stratum's forms once for all of
its classes; it finds divisors and the prime-power part N2 by its own
brute-force loops, sharing no helper with the package.  Everything else uses exact Python integers.  They serve only
as oracles: the tests require the package to agree with them exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import isqrt

import numpy as np

from modcurve.atkinlehner import diamond_matrix
from modcurve.classify import _stabilizer_generator, curve_name
from modcurve.congruence import cusp_table, is_member
from modcurve.errors import (
    CoverMismatch,
    DeterminantMismatch,
    MembershipViolation,
    SearchExhausted,
)
from modcurve.matrices import IDENTITY, S_MAT, T_MAT, Mat2
from modcurve.qforms import (
    FixedPointSet,
    GKZClass,
    QForm,
    reduce_form,
    reduced_classes,
)
from modcurve.zmodn import DeltaSubgroup, delta_by_label, delta_from_elements


# ---------------------------------------------------------------------------
# the coset space


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


@lru_cache(maxsize=4)
def coset_space(N: int, delta: DeltaSubgroup):
    """``(cosets, position)``: the canonical pair of every coset in increasing
    order, and the coset position of every pair with gcd(c, d, N) = 1.  A
    coset is a Delta-scaling orbit of pairs; its canonical pair is the least."""
    least: dict[tuple[int, int], tuple[int, int]] = {}
    for c in range(N):
        for d in range(N):
            if math.gcd(math.gcd(c, d), N) != 1 or (c, d) in least:
                continue
            orbit = {(a * c % N, a * d % N) for a in delta.elements}
            rep = min(orbit)
            for pair in orbit:
                least[pair] = rep
    cosets = sorted(set(least.values()))
    index = {pair: k for k, pair in enumerate(cosets)}
    return tuple(cosets), {pair: index[rep] for pair, rep in least.items()}


def position(N: int, delta: DeltaSubgroup, c: int, d: int) -> int:
    return coset_space(N, delta)[1][(c % N, d % N)]


def act(N: int, delta: DeltaSubgroup, pos: int, m: Mat2) -> int:
    """Position of coset ``pos`` right-multiplied by the matrix m."""
    c, d = coset_space(N, delta)[0][pos]
    return position(N, delta, c * m.a + d * m.c, c * m.b + d * m.d)


def genus(sigma_S: list[int], sigma_T: list[int]) -> int:
    """12g = 12 + mu - 3*e2 - 4*e3 - 6*einf from the permutations S and T."""
    mu = len(sigma_S)
    e2 = sum(sigma_S[k] == k for k in range(mu))
    e3 = sum(sigma_T[sigma_S[k]] == k for k in range(mu))
    num = 12 + mu - 3 * e2 - 4 * e3 - 6 * len(_cycles(sigma_T))
    assert num % 12 == 0
    return num // 12


def sigmas(N: int, delta: DeltaSubgroup) -> tuple[list[int], list[int]]:
    """The permutations of the cosets induced by S and by T."""
    cosets = coset_space(N, delta)[0]
    sigma_S = [position(N, delta, d, -c) for c, d in cosets]
    sigma_T = [position(N, delta, c, c + d) for c, d in cosets]
    return sigma_S, sigma_T


def lift_to_coprime(c: int, d: int, N: int) -> tuple[int, int]:
    """Integers (c', d') = (c, d) mod N with gcd(c', d') = 1."""
    c %= N
    d %= N
    if math.gcd(math.gcd(c, d), N) != 1:
        raise ValueError(f"gcd({c}, {d}, {N}) != 1")
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


def _bottom_row_to_matrix(c: int, d: int, N: int) -> Mat2:
    """An SL2(Z) matrix whose bottom row is = (c, d) mod N."""
    if (c % N, d % N) == (0, 1 % N):
        return IDENTITY
    c1, d1 = lift_to_coprime(c, d, N)
    # Bezout: u*d1 + v*c1 = 1 gives [[u, -v], [c1, d1]] in SL2(Z).
    u, v = _bezout(d1, c1)
    return Mat2(u, -v, c1, d1)


def transversal(N: int, delta: DeltaSubgroup) -> tuple[Mat2, ...]:
    """One SL2(Z) representative per coset, the identity for coset (0, 1)."""
    return tuple(_bottom_row_to_matrix(c, d, N) for c, d in coset_space(N, delta)[0])


def cusp_images(N: int, delta: DeltaSubgroup, m: Mat2) -> list[int]:
    """Image class of every cusp class under an integer matrix of nonzero det."""
    classes, lookup = cusp_classes(N, delta)
    out = []
    for (x, y), _, _ in classes:
        x1, y1 = lift_to_coprime(x, y, N)
        X, Y = m.a * x1 + m.b * y1, m.c * x1 + m.d * y1
        g = math.gcd(X, Y)
        out.append(lookup[(X // g % N, Y // g % N)])
    return out


# ---------------------------------------------------------------------------
# fixed points and cusps


def _signed(a: int, N: int) -> int:
    """Representative of ``a mod N`` in ``(-N/2, N/2]``."""
    a %= N
    return a if a <= N // 2 else a - N


def lift_witnesses(
    N: int, delta: DeltaSubgroup, w: Mat2, base: FixedPointSet
) -> tuple[tuple[int, int, int], ...]:
    """Route A: ``(base_index, fibre_rep, signed a)`` per fixed point above
    the base fixed points, keeping the first correction that hits."""
    d = base.d
    witnesses = []
    for j, point in enumerate(base.points):
        primitive = QForm(
            point.form.p // point.ell,
            point.form.q // point.ell,
            point.form.r // point.ell,
        )
        stab = _stabilizer_generator(primitive)
        corrections = [IDENTITY]
        gens = set(delta.elements)
        if stab is not None:
            corrections.append(stab)
            if primitive.disc == -3:
                corrections.append(stab * stab)
            gens.add(stab.a % N)
        wj_adj = point.matrix.adjugate()
        for rep in delta_from_elements(N, gens).coset_reps():
            g_mat = diamond_matrix(rep, N)
            g_adj = g_mat.adjugate()
            for s in corrections:
                m = w * g_mat * s.adjugate() * wj_adj * g_adj
                if not m.divisible_by(d):
                    continue
                gamma = m.divided_by(d)
                if is_member(gamma, N, delta):
                    witnesses.append((j, rep, _signed(gamma.a, N)))
                    break
    return tuple(witnesses)


def coset_elliptic_count(N: int, delta: DeltaSubgroup, w: Mat2) -> int:
    """Route B: non-cuspidal fixed points of ``w`` on the coset space."""
    m = w.det
    trans = transversal(N, delta)
    adjoints = [u.adjugate() for u in trans]
    adj_w = w.adjugate()

    traces = {0}
    for c in (1, 2, 3):
        s = isqrt(c * m)
        if s * s == c * m and s * s < 4 * m:
            traces.add(s)

    matches: dict[QForm, set[int]] = {}
    for t in sorted(traces):
        v = 4 * m - t * t
        for u in range(1, isqrt(v) + 1):
            if v % (u * u):
                continue
            d0 = -(v // (u * u))
            if d0 % 4 not in (0, 1):
                continue
            for form in reduced_classes(d0):
                if (t - u * form.q) % 2:
                    continue
                elem = Mat2(
                    (t - u * form.q) // 2,
                    -u * form.r,
                    u * form.p,
                    (t + u * form.q) // 2,
                )
                for x in range(len(trans)):
                    p = trans[x] * elem * adjoints[x] * adj_w
                    if not p.divisible_by(m):
                        continue
                    gamma = p.divided_by(m)
                    if gamma.det == 1 and is_member(gamma, N, delta):
                        matches.setdefault(form, set()).add(x)

    count = 0
    for form, positions in matches.items():
        stab = _stabilizer_generator(form)
        if stab is None:
            count += len(positions)
            continue
        seen: set[int] = set()
        for x in sorted(positions):
            if x in seen:
                continue
            count += 1
            y = x
            while True:
                seen.add(y)
                y = act(N, delta, y, stab)
                if y == x:
                    break
    return count


def cusp_orbit(N: int, delta: DeltaSubgroup, x: int, y: int) -> set[tuple[int, int]]:
    """Orbit {(a*(x + b*y), a^-1*y) : a in Delta, b mod N} of the pair (x; y)."""
    out: set[tuple[int, int]] = set()
    for a in delta.elements:
        ainv = pow(a, -1, N)
        ay = ainv * y % N
        for b in range(N):
            out.add((a * (x + b * y) % N, ay))
    return out


def cusp_labels(N: int, delta: DeltaSubgroup) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """``(labels, reps)``: the class of every pair index x*N + y (-1 off the
    cusp pairs) and the representative of every class, labelled orbit by
    orbit in increasing order of x*N + y with one numpy orbit per cusp."""
    pairs = np.arange(N * N, dtype=np.int64)
    unlabelled = np.gcd(np.gcd(pairs // N, pairs % N), N) == 1
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
    return labels, reps


@lru_cache(maxsize=4)
def cusp_classes(N: int, delta: DeltaSubgroup):
    """``(classes, lookup)``: one ``(rep, width, galois_orbit_size)`` per cusp,
    in order of the least pair, and the class index of every cusp pair."""
    lookup: dict[tuple[int, int], int] = {}
    orbits: list[set[tuple[int, int]]] = []
    for x in range(N):
        for y in range(N):
            if math.gcd(math.gcd(x, y), N) != 1 or (x, y) in lookup:
                continue
            orb = cusp_orbit(N, delta, x, y)
            for p in orb:
                lookup[p] = len(orbits)
            orbits.append(orb)
    reps = transversal(N, delta)
    widths = {}
    for cyc in _cycles(sigmas(N, delta)[1]):
        u = reps[cyc[0]]
        widths[lookup[(u.a % N, u.c % N)]] = len(cyc)
    units = [s for s in range(1, N) if math.gcd(s, N) == 1]
    classes = []
    for idx, orb in enumerate(orbits):
        x, y = min(orb)
        gal = len({lookup[(s * x % N, y)] for s in units})
        classes.append(((x, y), widths[idx], gal))
    return classes, lookup



def cusp_obstruction(N: int, delta: DeltaSubgroup, w: Mat2) -> str | None:
    """A rational cusp whose image cusp on X_0(N) has no rational cusp
    of X_Delta(N) above it; obstructs a Q-rational lift of ``w``."""
    table = cusp_table(N, delta)
    table0 = cusp_table(N, delta_by_label(N, "0"))
    proj = [table0.class_of(*cls.rep) for cls in table.classes]
    images = table0.images(w)
    for i, cls in enumerate(table.classes):
        if not cls.is_rational:
            continue
        image = images[proj[i]]
        fibre = [j for j, pj in enumerate(proj) if pj == image]
        if not fibre:
            raise CoverMismatch(
                f"no cusp of {curve_name(N, delta.label)} above a cusp of X_0({N})"
            )
        if all(not table.classes[j].is_rational for j in fibre):
            rep = cls.rep
            return (
                f"rational cusp ({rep[0]};{rep[1]}) maps to a cusp of "
                f"X_0({N}) with no rational cusp above it"
            )
    return None

def _sign_normal(m: Mat2) -> Mat2:
    for x in m.entries():
        if x > 0:
            return m
        if x < 0:
            return -m
    raise DeterminantMismatch("the zero matrix has no sign normal form")


@lru_cache(maxsize=None)
def schreier_generators(N: int, delta: DeltaSubgroup) -> tuple[Mat2, ...]:
    """Schreier generators of Gamma_Delta(N) from the coset transversal.

    For each coset representative U and each generator g in {S, T}, the
    element U * g * V^-1 (V the representative of the image coset) lies in
    Gamma_Delta(N); the nontrivial ones generate the group.
    """
    reps = transversal(N, delta)
    moves = tuple(zip((S_MAT, T_MAT), sigmas(N, delta)))
    out: dict[tuple[int, int, int, int], Mat2] = {}
    for k in range(len(reps)):
        for g, sigma in moves:
            m = reps[k] * g * reps[sigma[k]].adjugate()
            if m.det != 1:
                raise DeterminantMismatch(f"Schreier generator {m} at N={N}")
            if not is_member(m, N, delta):
                raise MembershipViolation(
                    f"Schreier generator {m} not in Gamma_Delta({N}), "
                    f"delta={delta.label}, coset {k}"
                )
            m = _sign_normal(m)
            if m != IDENTITY:
                out.setdefault(m.entries(), m)
    return tuple(out.values())


def normalizes(matrix: Mat2, delta: DeltaSubgroup) -> bool:
    """True when matrix * Gamma_Delta(N) * matrix^{-1} = Gamma_Delta(N).

    Checked on Schreier generators; one-sided containment suffices because
    conjugation preserves the index in SL2(Z).  The product
    matrix * gen * adj(matrix) is written out entry by entry, which keeps
    the sweep over every generator affordable; its determinant is m^2, so
    a quotient by m has determinant 1 and membership reduces to the
    congruences on its left column.
    """
    N = delta.N
    m = matrix.det
    if m < 1:
        return False
    a, b, c, d = matrix.entries()
    for gen in schreier_generators(N, delta):
        ga, gb, gc, gd = gen.entries()
        p, q = a * ga + b * gc, a * gb + b * gd
        r, s = c * ga + d * gc, c * gb + d * gd
        ca, cb, cc, cd = p * d - q * c, q * a - p * b, r * d - s * c, s * a - r * b
        if ca % m or cb % m or cc % m or cd % m:
            return False
        if (cc // m) % N or (ca // m) % N not in delta:
            return False
    return True


# ---------------------------------------------------------------------------
# fixed-point forms on X_0(N)


def class_representative(cls: GKZClass) -> QForm:
    """A concrete form [N*e, q, r] with gcd(e, q, r) = 1 in the given class.

    Scans q = beta (mod 2N) by increasing |q| (q before -q) and first
    coefficients N*e over divisors e of (q^2 - D)/(4N), ascending, and
    accepts the first form with the class's gcd invariants (m1, m2) whose
    image [N*e/N2, q, r*N2] (N2 the part of N built from the primes of m2)
    reduces to the class's reduced image.  The |q| bound starts at 16N and
    doubles up to 1024N before raising :class:`SearchExhausted`.
    """
    N, D, beta = cls.N, cls.D, cls.beta % (2 * cls.N)
    # N2: the largest divisor of N built from the primes dividing m2
    n2 = 1
    for p in range(2, cls.m2 + 1):
        if cls.m2 % p == 0 and all(p % q for q in range(2, p)):
            while N % (n2 * p) == 0:
                n2 *= p
    bound = 16 * N
    scanned_to = 0
    while bound <= 1024 * N:
        qs = []
        for k in range(-(bound // (2 * N)) - 1, bound // (2 * N) + 2):
            q = beta + 2 * N * k
            if scanned_to < abs(q) <= bound or (scanned_to == 0 and q == 0):
                qs.append(q)
        qs.sort(key=lambda q: (abs(q), -q))
        for q in qs:
            v = (q * q - D) // 4
            if v <= 0 or v % N:
                continue
            n = v // N
            for e in sorted({x for j in range(1, isqrt(n) + 1) if n % j == 0
                             for x in (j, n // j)}):
                P = N * e
                r = v // P
                if math.gcd(math.gcd(e, q), r) != 1:
                    continue
                if math.gcd(math.gcd(N, q), e) != cls.m1:
                    continue
                if math.gcd(math.gcd(N, q), r) != cls.m2:
                    continue
                if reduce_form(QForm(P // n2, q, r * n2))[0] == cls.reduced_image:
                    return QForm(P, q, r)
        scanned_to = bound
        bound *= 2
    raise SearchExhausted(f"no representative for {cls} with |q| <= {bound // 2}", bound // 2)

