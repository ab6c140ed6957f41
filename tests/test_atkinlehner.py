"""Normalizer elements: diamonds, Atkin-Lehner lifts, induced automorphisms."""

from __future__ import annotations

import math

import pytest

from modcurve.atkinlehner import (
    ORDER_CAP,
    UNBOUNDED,
    automorphism_order,
    descends,
    diamond_matrix,
    hat_W,
    normalizes,
    t_image,
    t_map,
)
from modcurve.classify import generic_atkin_lehner
from modcurve.congruence import is_member
from modcurve.errors import DoesNotDescend
from modcurve.facts import default_facts_path, load_facts
from modcurve.matrices import Mat2
from modcurve.zmodn import delta_by_label, hall_divisors, subgroups_containing_minus1
import scalar_oracles


# --------------------------------------------------------------------------
# diamonds


def test_diamond_matrix_is_member_of_full_level():
    for N in (21, 34, 40):
        full = subgroups_containing_minus1(N)[-1]
        for a in range(1, N):
            if _gcd(a, N) != 1:
                continue
            m = diamond_matrix(a, N)
            assert m.det == 1
            assert m.c % N == 0
            assert m.a % N in (a % N, (N - a) % N)
            assert is_member(m, N, full)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_diamond_respects_subgroup_membership():
    N = 21
    d1 = delta_by_label(N, "D1")  # {1, 8, 13, 20}
    assert is_member(diamond_matrix(8, N), N, d1)
    assert not is_member(diamond_matrix(2, N), N, d1)
    assert normalizes(diamond_matrix(2, N), d1)


def test_diamond_induces_identity_iff_in_delta():
    N = 21
    d1 = delta_by_label(N, "D1")
    assert automorphism_order(diamond_matrix(8, N), d1) == 1
    assert automorphism_order(diamond_matrix(2, N), d1) == 3  # 2^3 = 8 in Delta


# --------------------------------------------------------------------------
# the descent criterion and the conjugation action on subgroups


def test_t_map_is_involution_on_units():
    for N in (35, 65, 56):
        for d in hall_divisors(N):
            if d in (1, N):
                continue
            for a in range(1, N):
                if _gcd(a, N) != 1:
                    continue
                b = t_map(N, d, a)
                assert _gcd(b, N) == 1
                assert t_map(N, d, b) == a % N


def test_t_image_at_65_swaps_the_two_order_4_subgroups():
    d1 = delta_by_label(65, "D1")
    d2 = delta_by_label(65, "D2")
    d3 = delta_by_label(65, "D3")
    assert set(d1.elements) == {1, 8, 57, 64}
    assert set(d2.elements) == {1, 14, 51, 64}
    assert set(d3.elements) == {1, 18, 47, 64}
    assert t_image(65, 5, d1) == d3
    assert t_image(65, 5, d3) == d1
    assert t_image(65, 5, d2) == d2


def test_descends_iff_t_image_fixes_subgroup():
    for N in (35, 40, 56, 65):
        for delta in subgroups_containing_minus1(N):
            for d in hall_divisors(N):
                if d in (1,):
                    continue
                assert descends(d, delta) == (t_image(N, d, delta) == delta)


def test_descends_symmetric_in_complementary_divisor():
    for N in (35, 40, 56, 63, 65, 72):
        for delta in subgroups_containing_minus1(N):
            for d in hall_divisors(N):
                assert descends(d, delta) == descends(N // d, delta)


def test_fricke_always_descends():
    for N in (21, 34, 40, 56, 65):
        for delta in subgroups_containing_minus1(N):
            assert descends(N, delta)


# --------------------------------------------------------------------------
# Atkin-Lehner lifts


def test_hat_W_5_at_35():
    delta = delta_by_label(35, "D3")
    el = hat_W(5, delta)
    assert el is not None
    assert el == Mat2(10, -3, 35, -10)
    assert el.det == 5
    assert normalizes(el, delta)


def test_hat_W_descent_without_integral_lift():
    # at 65 the operator for 5 descends to the order-4 subgroup fixed by the
    # conjugation action, yet no integral lift of the required shape exists
    delta = delta_by_label(65, "D2")
    assert descends(5, delta)
    assert hat_W(5, delta) is None


def test_hat_W_raises_when_not_descending():
    delta = delta_by_label(65, "D1")
    assert not descends(5, delta)
    with pytest.raises(DoesNotDescend):
        hat_W(5, delta)


def test_hat_W_matrix_shape():
    # a lift for the divisor d has determinant d, lower-left divisible by N,
    # and normalizes the subgroup
    for N, label, d in ((35, "D3", 5), (21, "D1", 21), (34, "D2", 2),
                        (39, "D4", 39), (55, "D4", 11)):
        delta = delta_by_label(N, label)
        el = hat_W(d, delta)
        assert el is not None, (N, label, d)
        assert el.det == d
        assert el.c % N == 0
        assert normalizes(el, delta)
        # squares to a diamond, hence to the identity or a small-order map
        sq = el * el
        assert sq.divisible_by(d)
        assert automorphism_order(el, delta) in (1, 2, 3, 4, 6, 8)


# --------------------------------------------------------------------------
# the generator criterion of normalizes against the Schreier-generator oracle


def _normalizer_candidates(N, delta, extras):
    """Diamonds, Atkin-Lehner matrices with a diamond twist, the
    [[1,0],[N/2,1]] shape, the listed involutions of X_0(N) and three
    matrices that normalize no Gamma_Delta(N)."""
    twist = diamond_matrix(next(a for a in range(2, N) if math.gcd(a, N) == 1), N)
    out = [diamond_matrix(b, N) for b in delta.coset_reps()]
    for d in hall_divisors(N):
        w = generic_atkin_lehner(N, d)
        out += [w, twist * w]
    if N % 2 == 0:
        out.append(Mat2(1, 0, N // 2, 1))
    out += extras
    out += [Mat2(2, 1, 0, 1), Mat2(1, 0, 0, 2), Mat2(0, -1, 1, 0)]
    return out


def test_normalizes_matches_schreier_oracle():
    facts = load_facts(default_facts_path())
    outcomes = {True: 0, False: 0}
    for N in range(3, 61):
        listed = facts.get(f"x0.extra-involutions.{N}")
        extras = list(listed.as_matrices()) if listed is not None else []
        for delta in subgroups_containing_minus1(N):
            for m in _normalizer_candidates(N, delta, extras):
                got = normalizes(m, delta)
                assert got == scalar_oracles.normalizes(m, delta), (N, delta.label, m)
                outcomes[got] += 1
    # past the sweep: the listed involutions at 63, and the Atkin-Lehner
    # matrices at 65, the least level where some W_d does not descend
    later = [(63, m) for m in facts["x0.extra-involutions.63"].as_matrices()]
    later += [(65, generic_atkin_lehner(65, d)) for d in hall_divisors(65)]
    for N, m in later:
        for delta in subgroups_containing_minus1(N):
            got = normalizes(m, delta)
            assert got == scalar_oracles.normalizes(m, delta), (N, delta.label, m)
            outcomes[got] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0, outcomes


# --------------------------------------------------------------------------
# orders of induced automorphisms


def test_automorphism_orders_golden():
    d2 = delta_by_label(35, "D2")
    w5 = hat_W(5, d2)
    w35 = hat_W(35, d2)
    assert w5 is not None and w35 is not None
    assert automorphism_order(w5 * w35, d2) == 8

    d3 = delta_by_label(55, "D3")
    assert automorphism_order(Mat2(11, 2, 55, 11), d3) == 4

    d1 = delta_by_label(21, "D1")
    w = Mat2(6, -1, 21, -3)
    assert automorphism_order(w, d1) == 6
    sq = (w * w).divided_by(3)
    assert is_member(sq * diamond_matrix(5, 21).adjugate(), 21, d1)


def test_automorphism_order_of_involutions():
    for N, label, d in ((21, "D1", 21), (34, "D2", 2), (55, "D4", 11)):
        delta = delta_by_label(N, label)
        el = hat_W(d, delta)
        assert automorphism_order(el, delta) == 2


def test_automorphism_order_unbounded_marker():
    # no power of [[2,1],[0,1]] is a scalar times a member, so the search
    # stops at the cap and reports the unbounded sentinel
    delta = delta_by_label(21, "D1")
    m = Mat2(2, 1, 0, 1)
    assert not normalizes(m, delta)
    assert automorphism_order(m, delta) is UNBOUNDED


def test_unbounded_marker_for_parabolic():
    # a parabolic element normalizing the group induces an automorphism of
    # infinite order on nothing -- but T is a member, order 1; use T only
    # as the sanity baseline here
    delta = delta_by_label(21, "D1")
    assert automorphism_order(Mat2(1, 1, 0, 1), delta) == 1


def test_input_checks_survive_optimized_mode(run_optimized):
    # A division by a non-divisor is a caller mistake, refused with
    # InputError even under python -O.
    code = (
        "from modcurve.errors import InputError\n"
        "from modcurve.matrices import Mat2\n"
        "cases = [\n"
        "    lambda: Mat2(2, 0, 0, 2).divided_by(3),\n"
        "]\n"
        "for call in cases:\n"
        "    try:\n"
        "        call()\n"
        "    except InputError:\n"
        "        continue\n"
        "    raise SystemExit('no InputError')\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# --------------------------------------------------------------------------
# field degrees


def test_fricke_field_degree_values():
    # the lifts of W_N are defined over a field of degree phi(N)/|Delta|,
    # the index of Delta
    assert delta_by_label(21, "D1").index == 3
    assert delta_by_label(21, "D2").index == 2
    assert subgroups_containing_minus1(21)[-1].index == 1
    assert delta_by_label(65, "D2").index == 12
    assert subgroups_containing_minus1(29)[0].index == 14
