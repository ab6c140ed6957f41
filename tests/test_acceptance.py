"""Acceptance gate: one test per headline guarantee of the package.

Each test prints as a single pass/fail line under ``pytest -v``.  The
golden data lives in test_classify.py; this file asserts the end-to-end
behaviour against it, including the runtime budgets.
"""

from __future__ import annotations

import random
import time

from test_classify import (
    ALLOWED_EXTRA_WITNESSES,
    BIELLIPTIC_TABLE,
    COVER_TABLE_BIELLIPTIC_TARGETS,
    COVER_TABLE_NON_BIELLIPTIC_TARGETS,
    ELLIPTIC_CURVES,
    RATIONAL_CURVES,
    _published_label,
)

from modcurve.atkinlehner import (
    automorphism_order,
    descends,
    diamond_matrix,
    hat_W,
    t_image,
)
from modcurve.classify import (
    coset_fixed_points,
    cuspidal_fixed_count,
    involution_quotient_genus,
    lift_fixed_points,
)
from modcurve.congruence import coset_action, cusps, genus
from modcurve.matrices import IDENTITY, Mat2
from modcurve.qforms import fixed_points_X0, reduce_form, reduced_classes
from modcurve.zmodn import delta_by_label, hall_divisors, subgroups_containing_minus1

BIELLIPTIC_GENUS_COLUMN = (3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 7, 5, 3, 4,
                           5, 5, 5, 5, 5, 3, 4, 9, 5)


def test_01_genus_values_match_published_tables(census_by_key):
    start = time.monotonic()
    for key in RATIONAL_CURVES:
        assert census_by_key[key].genus == 0
    for key in ELLIPTIC_CURVES:
        assert census_by_key[key].genus == 1
    column = tuple(census_by_key[key].genus for key in sorted(BIELLIPTIC_TABLE))
    assert column == BIELLIPTIC_GENUS_COLUMN
    assert census_by_key[(34, "D2")].genus == 5
    assert census_by_key[(37, "D3")].genus == 4
    assert census_by_key[(37, "D4")].genus == 4
    assert genus(subgroups_containing_minus1(37)[-1]) == 2
    # the full sweep over every census curve must be cheap
    for (N, label), rec in census_by_key.items():
        assert genus(delta_by_label(N, label)) == rec.genus
    assert time.monotonic() - start < 60


def test_02_involution_fixed_points_worked_example():
    base = fixed_points_X0(34, 2)
    assert base.count == 4
    assert sorted((p.form.p, p.form.q, p.form.r) for p in base.points) == [
        (34, -26, 5), (34, -20, 3), (34, 20, 3), (34, 26, 5)]
    delta = delta_by_label(34, "D2")
    ref = base.points[0].matrix
    report = lift_fixed_points(delta, ref)
    assert len(report.witnesses) == 8
    assert cuspidal_fixed_count(delta, ref)[0] == 0
    assert {w[2] for w in report.witnesses} == {1, -1, 15, 9}


def test_03_negative_control_rejects_wrong_candidates():
    delta = delta_by_label(64, "D3")
    base = fixed_points_X0(64, 64)
    hat = hat_W(64, delta)
    assert hat is not None
    for cand in (hat, diamond_matrix(3, 64) * hat):
        total = (len(lift_fixed_points(delta, cand).witnesses)
                 + cuspidal_fixed_count(delta, cand)[0])
        assert total == 4
        assert involution_quotient_genus(5, total) != 1
    good = Mat2(1, 0, 32, 1)
    count = (coset_fixed_points(delta, good)[0]
             + cuspidal_fixed_count(delta, good)[0])
    assert count == 8
    assert involution_quotient_genus(5, count) == 1


def test_04_census_counts_and_fact_degradation(census_on, census_off):
    on = {(r.N, r.delta_label): r for r in census_on}
    off = {(r.N, r.delta_label): r for r in census_off}
    assert len(on) == 182

    bielliptic_on = {k for k, r in on.items() if r.is_bielliptic}
    assert bielliptic_on == set(BIELLIPTIC_TABLE)
    assert len(bielliptic_on) == 25
    hyper_on = {k for k, r in on.items() if r.status == "hyperelliptic"}
    assert hyper_on == {(21, "D1")}

    # without curated facts the positive classifications are unchanged and
    # the only movement is not-bielliptic rows degrading to undecided
    assert {k for k, r in off.items() if r.is_bielliptic} == bielliptic_on
    assert {k for k, r in off.items() if r.status == "hyperelliptic"} == hyper_on
    assert off[(37, "D4")].status == "undecided"
    for key, rec in off.items():
        if rec.status != on[key].status:
            assert on[key].status == "not-bielliptic"
            assert rec.status == "undecided"
            assert on[key].facts_used


def test_05_elimination_cover_tables_with_degrees(census_by_key):
    for table in (COVER_TABLE_BIELLIPTIC_TARGETS,
                  COVER_TABLE_NON_BIELLIPTIC_TARGETS):
        for (N, index), (target, degree) in table.items():
            rec = census_by_key[(N, _published_label(N, index))]
            assert rec.status == "not-bielliptic"
            assert any(e.target == target and e.degree == degree
                       for e in rec.evidence), (N, index)
    for key, (g, published) in BIELLIPTIC_TABLE.items():
        rec = census_by_key[key]
        names = {w.name for w in rec.witnesses}
        assert published <= names
        assert names - published <= ALLOWED_EXTRA_WITNESSES.get(key, set())


def test_06_operator_vignettes():
    d2 = delta_by_label(35, "D2")
    w5, w35 = hat_W(5, d2), hat_W(35, d2)
    assert w5 is not None and w35 is not None
    assert automorphism_order(w5 * w35, d2) == 8
    assert automorphism_order(Mat2(11, 2, 55, 11), delta_by_label(55, "D3")) == 4
    d65 = {lab: delta_by_label(65, lab) for lab in ("D1", "D2", "D3")}
    assert t_image(5, d65["D1"]) == d65["D3"]
    assert t_image(5, d65["D3"]) == d65["D1"]
    assert t_image(5, d65["D2"]) == d65["D2"]
    el = hat_W(5, delta_by_label(35, "D3"))
    assert el is not None and el == Mat2(10, -3, 35, -10)


def test_07_property_sweeps_within_budget(census_on):
    start = time.monotonic()

    # fixed-point parity of every descending involution lift
    checked = 0
    for rec in census_on:
        delta = delta_by_label(rec.N, rec.delta_label)
        for d in hall_divisors(rec.N):
            if d == 1 or not descends(d, delta):
                continue
            el = hat_W(d, delta)
            if el is None or automorphism_order(el, delta) != 2:
                continue
            report = lift_fixed_points(delta, el)
            total = len(report.witnesses) + cuspidal_fixed_count(delta, el)[0]
            assert 0 <= involution_quotient_genus(rec.genus, total) <= rec.genus
            checked += 1
    assert checked > 250

    # reduction invariance under random unimodular substitutions
    rng = random.Random(7)
    s = Mat2(0, -1, 1, 0)
    for D in range(-3, -525, -1):
        if D % 4 not in (0, 1):
            continue
        classes = reduced_classes(D)
        for _ in range(40):
            f = classes[rng.randrange(len(classes))]
            g = IDENTITY
            for _ in range(2):
                g = g * Mat2(1, rng.randint(-5, 5), 0, 1) * s
            assert reduce_form(f.apply(g))[0] == f

    # analytic cusp count equals the T-orbit count on cosets
    for rec in census_on:
        delta = delta_by_label(rec.N, rec.delta_label)
        sigma = coset_action(delta).sigma_T
        visited = [False] * len(sigma)
        cycles = 0
        for i in range(len(sigma)):
            if not visited[i]:
                cycles += 1
                j = i
                while not visited[j]:
                    visited[j] = True
                    j = sigma[j]
        assert cycles == len(cusps(delta))

    # descent symmetry between complementary divisors
    for rec in census_on:
        delta = delta_by_label(rec.N, rec.delta_label)
        for d in hall_divisors(rec.N):
            assert descends(d, delta) == descends(rec.N // d, delta)

    assert time.monotonic() - start < 300


def test_08_quadratic_point_classification(census_on):
    for rec in census_on:
        subhyperelliptic = rec.status in ("rational", "elliptic",
                                          "hyperelliptic")
        if subhyperelliptic:
            assert rec.quadratic_points == "infinite", (rec.N, rec.delta_label)
        else:
            assert rec.quadratic_points in ("finite", "finite-conditional")
    for rec in census_on:
        if rec.N == 37 and rec.status == "bielliptic":
            assert rec.quadratic_points == "finite"
            assert "n37.quadratic-finite" in rec.facts_used
