"""The int64 fixed-point routes and cusp table against their scalar oracles,
the two routes against each other, diamond involutions against
Riemann-Hurwitz, and the modulus and level guards."""

from __future__ import annotations

import tracemalloc

import pytest

from modcurve.atkinlehner import automorphism_order, descends, diamond_matrix
from modcurve.classify import (
    _lift_plan,
    _lifts,
    coset_fixed_points,
    cuspidal_fixed_count,
    lift_fixed_points,
)
from modcurve.congruence import LEVEL_LIMIT, coset_action, cusp_table, genus, transversal
from modcurve.errors import InputError
from modcurve.matrices import Mat2
from modcurve.qforms import FixedPointSet, fixed_points_X0
from modcurve.zmodn import (
    DeltaSubgroup,
    delta_by_label,
    delta_from_elements,
    hall_divisors,
    subgroups_containing_minus1,
)
from scalar_oracles import coset_elliptic_count, cusp_classes, lift_witnesses

SMALL_LEVELS = range(3, 61)

#: Census curves of larger level, with routes A and B and many cusps.
CENSUS_SAMPLE = [(64, "D2"), (72, "D5"), (81, "D1"), (95, "D3"), (119, "D4"), (131, "D2")]


def _atkin_lehner_lifts(N, delta):
    """(lift, base) for every lift [b] * W_d of every descending W_d whose
    base fixed-point set is non-empty."""
    for d in hall_divisors(N):
        if d == 1 or not descends(d, delta):
            continue
        base = fixed_points_X0(N, d)
        if not base.points:
            continue
        ref = base.points[0].matrix
        for b in delta.coset_reps():
            yield (diamond_matrix(b, N) * ref if b != 1 else ref), base


def _check_against_oracles(N, delta):
    # Route A at every lift.  Route B's scalar loop is slow at large det, so
    # it is compared at the reference lift of each W_d and at every diamond
    # involution; the lift-vs-coset test covers every involutive lift.
    references = set()
    for lift, base in _atkin_lehner_lifts(N, delta):
        report = lift_fixed_points(N, delta, lift, base)
        expected = lift_witnesses(N, delta, lift, base)
        assert report.witnesses == expected, (N, delta.label, str(lift))
        if base.d not in references:
            references.add(base.d)
            assert coset_fixed_points(N, delta, lift) == coset_elliptic_count(N, delta, lift)
    for b in delta.coset_reps():
        g = diamond_matrix(b, N)
        if b != 1 and automorphism_order(g, delta) == 2:
            assert coset_fixed_points(N, delta, g) == coset_elliptic_count(N, delta, g)

    table = cusp_table(N, delta)
    classes, lookup = cusp_classes(N, delta)
    assert [(c.rep, c.width, c.galois_orbit_size) for c in table.classes] == classes
    for x in range(N):
        for y in range(N):
            if (x, y) in lookup:
                assert table.class_of(x, y) == lookup[(x, y)]
            else:
                with pytest.raises(InputError):
                    table.class_of(x, y)


@pytest.mark.parametrize("N", SMALL_LEVELS)
def test_routes_and_cusps_match_scalar_oracles(N):
    for delta in subgroups_containing_minus1(N):
        _check_against_oracles(N, delta)


@pytest.mark.parametrize("N,label", CENSUS_SAMPLE)
def test_routes_and_cusps_match_scalar_oracles_on_census_curves(N, label):
    _check_against_oracles(N, delta_by_label(N, label))


def _compare_routes(N, delta) -> tuple[int, int]:
    """Count every involutive lift [b] * W_d by route A and by route B, and
    every diamond involution [b] by route B plus its fixed cusps and by
    Riemann-Hurwitz for the double cover X_Delta(N) -> X_<Delta, b>(N);
    returns how many lifts and diamonds were compared."""
    lifts = 0
    for lift, base in _atkin_lehner_lifts(N, delta):
        if automorphism_order(lift, delta) != 2:
            continue
        lifts += 1
        lifted = lift_fixed_points(N, delta, lift, base).fixed_elliptic
        assert lifted == coset_fixed_points(N, delta, lift), (N, delta.label, str(lift))
    diamonds = 0
    g = genus(N, delta)
    for b in delta.coset_reps():
        if b == 1 or b * b % N not in delta:
            continue
        diamonds += 1
        m = diamond_matrix(b, N)
        fixed = coset_fixed_points(N, delta, m) + cuspidal_fixed_count(N, delta, m)
        quotient = delta_from_elements(N, {*delta.elements, b})
        assert fixed == 2 * g + 2 - 4 * genus(N, quotient), (N, delta.label, b)
    return lifts, diamonds


def test_lift_route_agrees_with_coset_route():
    compared = [_compare_routes(N, delta)
                for N in SMALL_LEVELS for delta in subgroups_containing_minus1(N)]
    assert [sum(col) for col in zip(*compared)] == [1530, 132]


@pytest.mark.slow
@pytest.mark.parametrize("N", range(SMALL_LEVELS.stop, 257))
def test_lift_route_agrees_with_coset_route_beyond_tier_one(N):
    for delta in subgroups_containing_minus1(N):
        _compare_routes(N, delta)


def test_lift_reports_do_not_depend_on_the_call_order():
    # Route A caches its w-independent products per base set; the lifts of
    # W_3 on X_1(21) include fixed points found only at a stabiliser
    # correction, and each order builds the plan from a different lift.
    N, delta = 21, delta_by_label(21, "1")
    base = fixed_points_X0(N, 3)
    lifts = list(_lifts(base.points[0].matrix, delta))
    reports = []
    for order in (lifts, lifts[::-1]):
        _lift_plan.cache_clear()
        reports.append({b: lift_fixed_points(N, delta, w, base) for b, w in order})
    assert reports[0] == reports[1]
    assert sum(r.fixed_elliptic for r in reports[0].values()) == 24
    assert not any(column.flags.writeable for column in _lift_plan(N, delta, base))


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(InputError):
            fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coset_route_refuses_modulus_past_int32():
    peak = _peak_bytes(lambda: coset_fixed_points(13, "0", Mat2(2**31, 0, 0, 1)))
    assert peak < 1 << 20


def test_lift_route_refuses_modulus_past_int32():
    # The Fricke involution at the prime level 46349 gives d*N = 46349^2 >= 2^31;
    # the refusal must come before any table of size N^2 is built.
    N = 46349
    delta = DeltaSubgroup(N, (1, N - 1), "1")
    base = FixedPointSet(N, N, ())
    peak = _peak_bytes(lambda: lift_fixed_points(N, delta, Mat2(0, -1, N, 0), base))
    assert peak < 1 << 20


@pytest.mark.parametrize("build", [coset_action, cusp_table, genus, transversal])
def test_coset_tables_refuse_levels_past_the_bound(build):
    N = LEVEL_LIMIT + 1
    delta = DeltaSubgroup(N, (1, N - 1), "1")
    assert _peak_bytes(lambda: build(N, delta)) < 1 << 20
