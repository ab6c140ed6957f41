"""Scalar reference versions of the fixed-point counters and the cusp table.

These are the per-coset ``Mat2`` loops that the package replaced with int64
arithmetic modulo m*N.  They use exact Python integers throughout and serve
only as oracles: the tests require the package to agree with them exactly.
"""

from __future__ import annotations

import math
from math import isqrt

from modcurve.atkinlehner import diamond_matrix
from modcurve.classify import _signed, _stabilizer_generator
from modcurve.congruence import _cycles, coset_action, is_member, transversal
from modcurve.matrices import IDENTITY, Mat2
from modcurve.qforms import FixedPointSet, QForm, reduced_classes
from modcurve.zmodn import DeltaSubgroup, delta_from_elements, unit_group


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
    act = coset_action(N, delta)
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
                for x in range(act.degree):
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
                y = act.act(y, stab)
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
    for cyc in _cycles(coset_action(N, delta).sigma_T):
        u = reps[cyc[0]]
        widths[lookup[(u.a % N, u.c % N)]] = len(cyc)
    units = unit_group(N).elements
    classes = []
    for idx, orb in enumerate(orbits):
        x, y = min(orb)
        gal = len({lookup[(s * x % N, y)] for s in units})
        classes.append(((x, y), widths[idx], gal))
    return classes, lookup
