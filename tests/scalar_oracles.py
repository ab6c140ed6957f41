"""Scalar reference versions of the coset space, the fixed-point counters,
the cusp table and the normalizer test.

The coset space (canonical pairs, positions, sigma_S and sigma_T, the
transversal and the action of matrices on cusps) is built pair by pair
with Python dicts and ``Mat2``, where the package indexes int64 tables.
The fixed-point counters and the cusp table are the per-coset ``Mat2``
loops that the package replaced with int64 arithmetic modulo m*N; the
normalizer test conjugates every Schreier generator of Gamma_Delta(N),
where the package tests |Delta| + 2 generators modulo m*N.  They use exact
Python integers throughout and serve only as oracles: the tests require
the package to agree with them exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import isqrt

from modcurve.atkinlehner import diamond_matrix
from modcurve.classify import _signed, _stabilizer_generator
from modcurve.congruence import _cycles, is_member
from modcurve.errors import DeterminantMismatch, MembershipViolation
from modcurve.matrices import IDENTITY, S_MAT, T_MAT, Mat2
from modcurve.qforms import FixedPointSet, QForm, reduced_classes
from modcurve.zmodn import DeltaSubgroup, delta_from_elements, unit_group


# ---------------------------------------------------------------------------
# the coset space


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
    units = unit_group(N).elements
    classes = []
    for idx, orb in enumerate(orbits):
        x, y = min(orb)
        gal = len({lookup[(s * x % N, y)] for s in units})
        classes.append(((x, y), widths[idx], gal))
    return classes, lookup


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
