"""The int64 fixed-point routes and cusp table against their scalar oracles,
the two routes against each other, diamond involutions against
Riemann-Hurwitz, the per-lift order and cusp decisions against
``automorphism_order`` and the cusp images of each lift, the route
evaluations of one classification, and the modulus and level guards."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import modcurve.classify as classify
from modcurve.atkinlehner import automorphism_order, descends, diamond_matrix, hat_W
from modcurve.classify import (
    Classifier,
    al_reference,
    coset_fixed_points,
    cuspidal_fixed_count,
    lift_fixed_points,
)
from modcurve.congruence import (
    LEVEL_LIMIT,
    _clear_level_caches,
    coset_action,
    cusp_diamonds,
    cusp_table,
    degree,
    genus,
    transversal,
)
from modcurve.errors import InputError
from modcurve.facts import FactBook
from modcurve.matrices import IDENTITY, Mat2
from modcurve.qforms import fixed_points_X0
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


def _lifts(w, delta):
    """The lifts [b] * w, b over delta.coset_reps(); the first is w."""
    return [diamond_matrix(b, delta.N) * w if b != 1 else w for b in delta.coset_reps()]


def _atkin_lehner_operators(N, delta):
    """(first base point matrix, base) for every descending W_d whose base
    fixed-point set is non-empty."""
    for d in hall_divisors(N):
        if d == 1 or not descends(d, delta):
            continue
        base = fixed_points_X0(N, d)
        if base.points:
            yield base.points[0].matrix, base


def _atkin_lehner_lifts(N, delta):
    """(lift, base) for every lift [b] * W_d of every descending W_d whose
    base fixed-point set is non-empty."""
    for ref, base in _atkin_lehner_operators(N, delta):
        for lift in _lifts(ref, delta):
            yield lift, base


def _check_against_oracles(N, delta):
    # Route A at every lift.  Route B's scalar loop is slow at large det, so
    # it is compared at the reference lift of each W_d and at every diamond
    # involution; the lift-vs-coset test covers every lift.
    references = set()
    for lift, base in _atkin_lehner_lifts(N, delta):
        report = lift_fixed_points(delta, lift)
        expected = lift_witnesses(N, delta, lift, base)
        assert report.witnesses == expected, (N, delta.label, str(lift))
        if base.d not in references:
            references.add(base.d)
            assert coset_fixed_points(delta, lift)[0] == coset_elliptic_count(N, delta, lift)
    for b in delta.coset_reps():
        g = diamond_matrix(b, N)
        if b != 1 and automorphism_order(g, delta) == 2:
            assert coset_fixed_points(delta, g)[0] == coset_elliptic_count(N, delta, g)

    table = cusp_table(delta)
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


@pytest.mark.parametrize("N", [*range(3, 41), 48, 56, 63])
def test_every_lift_of_one_evaluation_matches_the_scalar_oracles(N):
    # One evaluation of a route counts every lift [b] * w; each entry must
    # match the scalar oracle run on that lift alone.  Route B is checked on
    # the diamonds (the lifts of the identity), on the lifts of W_d for
    # d <= 6, where its scalar loop stays cheap, and on the explicit
    # candidates of the witness search, [[1,0],[N/2,1]] for 4 | N and the
    # listed extra involutions, whose lower-left entry is not 0 mod det*N.
    # 48, 56 and 63 are the levels past 40 with a listed matrix.
    search = Classifier(FactBook())
    for delta in subgroups_containing_minus1(N):
        for ref, base in _atkin_lehner_operators(N, delta):
            report = lift_fixed_points(delta, ref)
            expected = [lift_witnesses(N, delta, lift, base) for lift in _lifts(ref, delta)]
            assert report.witnesses == expected[0], (N, delta.label, base.d)
            assert report.elliptic_by_lift == tuple(map(len, expected)), (N, delta.label, base.d)
        operators = [IDENTITY] + [
            al_reference(d, delta)[0] for d in hall_divisors(N)
            if 1 < d <= 6 and descends(d, delta)
        ] + [w for kind, w, _ in search._witness_candidates(delta) if kind == "explicit"]
        for w in operators:
            expected = tuple(coset_elliptic_count(N, delta, lift) for lift in _lifts(w, delta))
            assert coset_fixed_points(delta, w) == expected, (N, delta.label, str(w))


def test_lift_counts_include_fixed_points_found_at_a_stabiliser_correction():
    # The lifts of W_3 on X_1(21) have fixed points found only at a
    # stabiliser correction of their base point.
    N, delta = 21, delta_by_label(21, "1")
    base = fixed_points_X0(N, 3)
    ref = base.points[0].matrix
    report = lift_fixed_points(delta, ref)
    assert sum(report.elliptic_by_lift) == 24
    assert report.elliptic_by_lift == tuple(
        len(lift_witnesses(N, delta, lift, base)) for lift in _lifts(ref, delta)
    )


def test_lift_route_reads_the_base_points_at_the_level_of_delta():
    # Route A takes the fixed points of W_2 on X_0(10) from the level of
    # Delta, whatever another level has put in the cache just before.
    delta = delta_by_label(10, "1")
    ref = al_reference(2, delta)[0]
    assert fixed_points_X0(14, 2).count == 0
    report = lift_fixed_points(delta, ref)
    assert report.elliptic_by_lift == (2, 2)
    base = fixed_points_X0(10, 2)
    assert report.elliptic_by_lift == tuple(
        len(lift_witnesses(10, delta, lift, base)) for lift in _lifts(ref, delta)
    )


def test_a_fresh_curve_evaluates_each_operator_once(monkeypatch):
    # Classifying X_{D5}(72) from scratch runs route A at most once per
    # (N, Delta, W_d).  The bounds 30 and 4 are the calls of each route
    # when every lift [b] * w was a separate evaluation.
    lifted, direct = [], []
    route_a, route_b = classify.lift_fixed_points, classify.coset_fixed_points

    def lift(delta, w):
        lifted.append((delta.N, delta.label, w.det))
        return route_a(delta, w)

    def coset(delta, w):
        direct.append((delta.N, delta.label))
        return route_b(delta, w)

    monkeypatch.setattr(classify, "lift_fixed_points", lift)
    monkeypatch.setattr(classify, "coset_fixed_points", coset)
    record = Classifier(FactBook()).classify(72, "D5")
    assert record.status == "not-bielliptic"
    assert len(lifted) == len(set(lifted)) <= 30
    assert len(direct) <= 4


def _decided_lifts(delta, w, route_a=False):
    """``_involution_counts`` of ``w``, after checking its per-lift
    decisions against the scalar ones: it returns exactly the lifts [b] * w
    (w for b = 1) that ``automorphism_order`` finds of order 2, and
    ``cuspidal_fixed_count`` counts, for every lift, the cusp classes that
    ``CuspTable.images`` of that lift fixes."""
    N, lifts = delta.N, _lifts(w, delta)
    counts = classify._involution_counts(delta, w, genus(delta), route_a)
    expected = [(k, lift) for k, lift in enumerate(lifts) if automorphism_order(lift, delta) == 2]
    assert [(k, lift) for k, lift, _, _ in counts] == expected, (N, delta.label, str(w))
    images = [cusp_table(delta).images(lift) for lift in lifts]
    cuspidal = tuple(int(np.count_nonzero(im == np.arange(im.size))) for im in images)
    assert cuspidal_fixed_count(delta, w) == cuspidal, (N, delta.label, str(w))
    assert [c for _, _, _, c in counts] == [cuspidal[k] for k, _ in expected]
    return counts


def _compare_routes(N, delta) -> tuple[int, int]:
    """Count every W_d with base points once by route A and once by route
    B and compare the counts of every lift [b] * W_d, whatever its order,
    with the per-lift decisions checked by ``_decided_lifts``; count the
    diamonds once by route B and check every diamond involution [b], with
    its fixed cusps, by Riemann-Hurwitz for the double cover
    X_Delta(N) -> X_<Delta, b>(N).  Returns how many lifts and diamonds
    were compared."""
    lifts = 0
    for ref, _ in _atkin_lehner_operators(N, delta):
        direct = coset_fixed_points(delta, ref)
        assert lift_fixed_points(delta, ref).elliptic_by_lift == direct, (N, delta.label, str(ref))
        lifts += len(direct)
        for k, lift, lifted, _ in _decided_lifts(delta, ref, route_a=True):
            assert lifted == direct[k], (N, delta.label, str(lift))
    diamonds = 0
    g = genus(delta)
    direct = coset_fixed_points(delta, IDENTITY)
    for k, b in enumerate(delta.coset_reps()):
        if b == 1 or b * b % N not in delta:
            continue
        diamonds += 1
        fixed = direct[k] + cuspidal_fixed_count(delta, diamond_matrix(b, N))[0]
        quotient = delta_from_elements(N, {*delta.elements, b})
        assert fixed == 2 * g + 2 - 4 * genus(quotient), (N, delta.label, b)
    return lifts, diamonds


def test_lift_route_agrees_with_coset_route():
    compared = [_compare_routes(N, delta)
                for N in SMALL_LEVELS for delta in subgroups_containing_minus1(N)]
    assert [sum(col) for col in zip(*compared)] == [1750, 132]


@pytest.mark.slow
@pytest.mark.parametrize("N", range(SMALL_LEVELS.stop, 257))
def test_lift_route_agrees_with_coset_route_beyond_tier_one(N):
    for delta in subgroups_containing_minus1(N):
        _compare_routes(N, delta)


def test_every_candidate_lift_is_decided_in_the_int64_form(classifier_on, census_on):
    # Every operator the witness search tries on every census curve, with
    # the per-lift decisions of _involution_counts checked lift by lift.
    operators = 0
    for rec in census_on:
        delta = delta_by_label(rec.N, rec.delta_label)
        for kind, w, _ in classifier_on._witness_candidates(delta):
            _decided_lifts(delta, w, route_a=kind == "atkin-lehner")
            operators += 1
    assert operators == 681


def test_named_lift_orders_and_cusp_counts():
    def involutive(N, label, w, route_a=False):
        return [k for k, _, _, _ in _decided_lifts(delta_by_label(N, label), w, route_a)]

    # the identity's lift 0 has order 1, so only proper diamonds can qualify
    assert 0 not in involutive(34, "D2", IDENTITY)
    d2 = delta_by_label(35, "D2")
    w = hat_W(5, d2) * hat_W(35, d2)
    assert automorphism_order(w, d2) == 8
    assert 0 not in involutive(35, "D2", w)
    w = Mat2(11, 2, 55, 11)
    assert automorphism_order(w, delta_by_label(55, "D3")) == 4
    assert 0 not in involutive(55, "D3", w)
    # determinant 25 = 5^2: an involution that is not 5 times a member
    ref = al_reference(25, delta_by_label(25, "D1"))[0]
    assert 0 in involutive(25, "D1", ref, route_a=True)
    # determinant 1 without being in Gamma_Delta(28)
    assert 0 in involutive(28, "D1", Mat2(1, 0, 14, 1))


def test_coset_route_at_the_level_bound_finishes_only_the_rows_it_needs():
    # Forming every entry of every product on every coset peaked at 103.5 MB
    # under tracemalloc here; the lower-left entries alone select the rows.
    delta = DeltaSubgroup(1021, (1, 1020), "1")
    _clear_level_caches()
    coset_action(delta)
    transversal(delta)
    tracemalloc.start()
    try:
        counts = coset_fixed_points(delta, IDENTITY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _clear_level_caches()
    assert len(counts) == delta.index and counts[0] == 0
    assert peak < 64 << 20


def test_cached_route_arrays_are_read_only():
    # the arrays are shared by every caller through the caches
    delta = delta_by_label(21, "1")
    shared = [
        classify._fibre_reps(delta, None),
        *classify._diamond_columns(21),
        cusp_diamonds(delta),
    ]
    for arr in shared:
        with pytest.raises(ValueError):
            arr += 1


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(InputError):
            fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coset_route_refuses_modulus_past_int32():
    delta = delta_by_label(13, "0")
    peak = _peak_bytes(lambda: coset_fixed_points(delta, Mat2(2**31, 0, 0, 1)))
    assert peak < 1 << 20


def test_lift_route_refuses_modulus_past_int32():
    # The Fricke involution at the prime level 46349 gives d*N = 46349^2 >= 2^31;
    # the refusal must come before any table of size N^2 is built.
    N = 46349
    delta = DeltaSubgroup(N, (1, N - 1), "1")
    peak = _peak_bytes(lambda: lift_fixed_points(delta, Mat2(0, -1, N, 0)))
    assert peak < 1 << 20


@pytest.mark.parametrize("build", [coset_action, cusp_table, cusp_diamonds, degree, genus, transversal])
def test_coset_tables_refuse_levels_past_the_bound(build):
    N = LEVEL_LIMIT + 1
    delta = DeltaSubgroup(N, (1, N - 1), "1")
    assert _peak_bytes(lambda: build(delta)) < 1 << 20
