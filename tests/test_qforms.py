"""Binary quadratic forms, class numbers, and involution fixed points."""

from __future__ import annotations

import math

import pytest

from modcurve.classify import coset_fixed_points, generic_atkin_lehner
from modcurve.errors import (
    BadDiscriminant,
    DeterminantMismatch,
    FormMismatch,
    InputError,
    NotPositiveDefinite,
)
from modcurve.matrices import Mat2
from modcurve.qforms import (
    QForm,
    beta_candidates,
    class_number,
    class_representative,
    fixed_points_X0,
    gkz_decompose,
    reduce_form,
    reduced_classes,
)
from modcurve.zmodn import delta_by_label, subgroups_containing_minus1
import scalar_oracles


# --------------------------------------------------------------------------
# independent oracles


def brute_reduced_primitive(D: int) -> set[tuple[int, int, int]]:
    """All reduced primitive positive-definite forms of discriminant D < 0,
    by direct enumeration of |q| <= p <= r."""
    out = set()
    p = 1
    while 3 * p * p <= -D:
        for q in range(-p, p + 1):
            num = q * q - D
            if num % (4 * p):
                continue
            r = num // (4 * p)
            if r < p:
                continue
            if (abs(q) == p or p == r) and q < 0:
                continue
            if math.gcd(math.gcd(p, q), r) == 1:
                out.add((p, q, r))
        p += 1
    return out


def kronecker(D: int, p: int) -> int:
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    v = pow(D % p, (p - 1) // 2, p)
    return 0 if v == 0 else (1 if v == 1 else -1)


def eichler_count(N: int, Q: int) -> int:
    """Classical fixed-point count of the determinant-Q involution on the
    level-N curve, as a class-number sum with local split/inert factors.

    Only valid when N/Q is squarefree and every prime of N/Q is coprime to
    the conductor of each discriminant, as ``eichler_applies`` checks.
    """
    M = N // Q
    total = 0
    for D in _eichler_discs(Q):
        term = class_number(D)
        for p in sorted({f for f in _prime_factors(M)}):
            term *= 1 + kronecker(D, p)
        total += term
    return total


def _eichler_discs(Q: int) -> list[int]:
    """The discriminants that ``eichler_count(N, Q)`` sums over."""
    if Q == 2:
        return [-4, -8]
    if Q == 3:
        return [-3, -12]
    if Q % 4 == 3:
        return [-4 * Q, -Q]
    return [-4 * Q]


def _conductor(D: int) -> int:
    """The conductor f of the order of discriminant D: D = f^2 * D_K."""
    return max(
        f for f in range(1, math.isqrt(-D) + 1)
        if D % (f * f) == 0 and (D // (f * f)) % 4 in (0, 1)
    )


def eichler_applies(N: int, Q: int) -> bool:
    """Whether ``eichler_count(N, Q)`` is valid: N/Q squarefree and coprime
    to the conductor of each discriminant the sum runs over."""
    M = N // Q
    if any(M % (p * p) == 0 for p in _prime_factors(M)):
        return False
    return all(math.gcd(M, _conductor(D)) == 1 for D in _eichler_discs(Q))


def hall_pairs(levels) -> list[tuple[int, int]]:
    """Every (N, d) with d >= 2 a Hall divisor of N, for N in ``levels``."""
    return [
        (N, d) for N in levels for d in range(2, N + 1)
        if N % d == 0 and math.gcd(d, N // d) == 1
    ]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# --------------------------------------------------------------------------
# reduction


def test_reduce_form_golden_values():
    red, g = reduce_form(QForm(11, 49, 55))
    assert red == QForm(1, 1, 5)
    assert g.det == 1 and QForm(11, 49, 55).apply(g) == red
    red, _ = reduce_form(QForm(3, 3, 1).apply(Mat2(0, -1, 1, 0)))
    assert red == QForm(1, 1, 1)
    red, _ = reduce_form(QForm(15, 56, 53))
    assert red in reduced_classes(-44)


def test_reduce_form_idempotent_and_invariant():
    for f in (QForm(2, -1, 3), QForm(1, 0, 8), QForm(4, 4, 5), QForm(6, 2, 7)):
        red, g = reduce_form(f)
        assert red.is_reduced
        assert g.det == 1
        assert f.apply(g) == red
        assert red.disc == f.disc
        assert red.content == f.content
        again, h = reduce_form(red)
        assert again == red
        assert h == Mat2(1, 0, 0, 1)


def test_reduce_form_preserves_content_when_imprimitive():
    f = QForm(2, 2, 12).apply(Mat2(3, 1, 5, 2))
    red, _ = reduce_form(f)
    assert red.content == 2
    assert red.disc == f.disc


def test_reduce_form_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        reduce_form(QForm(1, 3, 1))
    with pytest.raises(NotPositiveDefinite):
        reduce_form(QForm(-1, 0, -1))


# --------------------------------------------------------------------------
# class numbers


KNOWN_CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -12: 1, -15: 2, -16: 1, -19: 1,
    -20: 2, -23: 3, -24: 2, -27: 1, -28: 1, -31: 3, -32: 2, -35: 2,
    -36: 2, -39: 4, -40: 2, -43: 1, -47: 5, -48: 2, -52: 2, -55: 4,
    -56: 4, -63: 4, -64: 2, -67: 1, -68: 4, -84: 4, -120: 4, -163: 1,
    -420: 8,
}


def test_class_number_known_values():
    for D, h in KNOWN_CLASS_NUMBERS.items():
        assert class_number(D) == h, D


@pytest.mark.parametrize("D", [d for d in range(-3, -260, -1) if d % 4 in (0, 1)])
def test_class_number_against_enumeration(D):
    brute = brute_reduced_primitive(D)
    assert class_number(D) == len(brute)
    listed = reduced_classes(D)
    assert len(listed) == len(set(listed)) == len(brute)
    for f in listed:
        assert f.is_reduced and f.is_primitive and f.disc == D
        assert (f.p, f.q, f.r) in brute


def test_class_number_rejects_bad_discriminants():
    for D in (-5, -6, 4, 0, -1, -2):
        with pytest.raises(BadDiscriminant):
            class_number(D)


# --------------------------------------------------------------------------
# fixed points of Atkin-Lehner involutions on the full-level curve


FROZEN_COUNTS = {
    (12, 3): 2, (12, 12): 2, (20, 20): 4, (21, 7): 0, (21, 21): 4,
    (28, 4): 0, (28, 7): 6, (28, 28): 2, (34, 2): 4, (44, 11): 6,
    (44, 44): 6, (63, 63): 8, (75, 75): 8, (92, 23): 18, (92, 92): 6,
}


def test_fixed_point_counts_frozen():
    for (N, d), count in FROZEN_COUNTS.items():
        assert fixed_points_X0(N, d).count == count, (N, d)


EICHLER_PAIRS = [
    (15, 3), (15, 5), (15, 15), (21, 3), (21, 7), (21, 21),
    (26, 2), (26, 13), (26, 26), (29, 29), (30, 2), (30, 5), (30, 6),
    (30, 10), (30, 30), (33, 3), (33, 11), (33, 33), (34, 2), (34, 17),
    (34, 34), (35, 5), (35, 7), (35, 35), (39, 3), (39, 13), (39, 39),
    (41, 41), (46, 2), (46, 46), (49, 49), (51, 3), (51, 17), (51, 51),
    (55, 5), (55, 11), (55, 55),
]


@pytest.mark.parametrize("N,Q", EICHLER_PAIRS)
def test_fixed_point_counts_against_class_number_sums(N, Q):
    assert eichler_applies(N, Q)
    assert fixed_points_X0(N, Q).count == eichler_count(N, Q)


@pytest.mark.slow
def test_every_fixed_point_count_against_class_number_sums_to_1000():
    # every Hall divisor up to N = 1000 where the class-number sum applies
    pairs = [(N, Q) for N, Q in hall_pairs(range(2, 1001)) if eichler_applies(N, Q)]
    assert len(pairs) == 2925
    for N, Q in pairs:
        assert fixed_points_X0(N, Q).count == eichler_count(N, Q), (N, Q)


DUAL_ROUTE_PAIRS = [
    (12, 3), (12, 12), (20, 20), (21, 7), (21, 21), (26, 13),
    (28, 4), (28, 7), (28, 28), (34, 2), (34, 34), (44, 11), (63, 63),
]


@pytest.mark.parametrize("N,d", DUAL_ROUTE_PAIRS)
def test_fixed_point_counts_match_coset_route(N, d):
    # the form-stratum count and the direct coset-space count are computed
    # by unrelated algorithms; they must agree
    full = subgroups_containing_minus1(N)[-1]
    w = generic_atkin_lehner(N, d)
    assert (fixed_points_X0(N, d).count,) == coset_fixed_points(full, w)


def test_fixed_point_structure():
    for N, d in ((28, 7), (34, 2), (21, 21), (44, 11)):
        for pt in fixed_points_X0(N, d).points:
            assert pt.form.disc == pt.gkz.D * pt.gkz.ell**2
            assert pt.form.disc in (-4 * d, d * d - 4 * d)
            assert pt.form.p % N == 0
            assert pt.matrix.det == d
            assert pt.matrix.c % N == 0
            assert pt.matrix.trace in (0, d)
            # the elliptic element fixes the root of its form
            assert pt.form.apply(pt.matrix) == pt.form.scaled(d)
            # the layer representative is primitive in the cofactor sense:
            # for [pN, q, r] only gcd(p, q, r) = 1 is required
            prim = class_representative(pt.gkz)
            assert prim.disc == pt.gkz.D
            assert prim.p % N == 0
            assert math.gcd(math.gcd(prim.p // N, prim.q), prim.r) == 1


def _check_stratum_scan_against_per_class_oracle(levels) -> int:
    """Every fixed point's form is the one the per-class scan finds for its
    class, scaled by the point's content; returns the number of points."""
    seen = 0
    for N, d in hall_pairs(levels):
        for pt in fixed_points_X0(N, d).points:
            expected = scalar_oracles.class_representative(pt.gkz)
            assert pt.form == expected.scaled(pt.ell), (N, d, pt.gkz)
            seen += 1
    return seen


def test_stratum_scan_matches_per_class_oracle():
    assert _check_stratum_scan_against_per_class_oracle(range(2, 132)) > 0
    # the public per-class entry point reads the same scan
    for pt in fixed_points_X0(28, 7).points + fixed_points_X0(92, 23).points:
        assert class_representative(pt.gkz) == scalar_oracles.class_representative(pt.gkz)


@pytest.mark.slow
def test_stratum_scan_matches_per_class_oracle_beyond_131():
    assert _check_stratum_scan_against_per_class_oracle(range(132, 401)) > 0


def test_gkz_strata_at_28_7():
    # the beta = 14 family contains a class whose total form [28,14,2] has
    # coefficient content 2; only the cofactor triple (1, 14, 2) must be
    # primitive, so the class is a genuine stratum and the count is 6
    assert beta_candidates(28, 7) == [(14, -28), (42, -28)]
    fps = fixed_points_X0(28, 7)
    assert fps.count == 6
    forms = {str(pt.form) for pt in fps.points}
    assert forms == {
        "[28,14,2]", "[56,14,1]", "[56,-42,8]",
        "[28,-14,2]", "[56,-14,1]", "[56,42,8]",
    }
    content2 = [pt for pt in fps.points
                if pt.gkz.ell == 1 and pt.form.content == 2]
    assert {str(p.form) for p in content2} == {"[28,14,2]", "[28,-14,2]"}
    for pt in content2:
        assert (pt.gkz.m1, pt.gkz.m2) == (1, 2)
        assert pt.gkz.ell == 1 and pt.gkz.D == -28
    halo = [pt for pt in fps.points if pt.gkz.ell == 2]
    assert len(halo) == 2
    assert all(pt.gkz.D == -7 for pt in halo)
    strata = gkz_decompose(-28, 28, 14)
    assert sorted((c.D, c.ell, c.m1, c.m2) for c in strata) == [
        (-28, 1, 1, 2), (-28, 1, 2, 1), (-7, 2, 1, 1),
    ]


def test_elliptic_element_of_a_form():
    # [[(t-q)/2, -r], [p, (t+q)/2]] fixes the root of [p, q, r] and has
    # determinant (t^2 - disc)/4
    form = QForm(28, 14, 2)
    w = form.elliptic(0, 7)
    assert w == Mat2(-7, -2, 28, 7) and w.trace == 0
    assert form.apply(w) == form.scaled(7)
    assert QForm(1, 1, 1).elliptic(1, 1) == Mat2(0, -1, 1, 1)
    with pytest.raises(FormMismatch):
        form.elliptic(1, 7)  # q = 14 and the trace 1 differ in parity
    with pytest.raises(DeterminantMismatch):
        form.elliptic(0, 5)


def test_beta_candidates_scan_every_beta():
    # both families against a plain scan of every beta mod 2N: trace 0 with
    # D = -4d and beta = 0 (mod 2d), then trace d in {2, 3} with D = d^2 - 4d
    for N, d in hall_pairs(range(2, 121)):
        expected = [(beta, -4 * d) for beta in range(2 * N)
                    if beta % (2 * d) == 0 and (beta * beta + 4 * d) % (4 * N) == 0]
        if d in (2, 3):
            D = d * d - 4 * d
            expected += [(beta, D) for beta in range(2 * N)
                         if beta % (2 * d) == d and (beta * beta - D) % (4 * N) == 0]
        assert beta_candidates(N, d) == expected, (N, d)


def test_fixed_points_requires_hall_divisor():
    with pytest.raises(InputError):
        fixed_points_X0(12, 2)
    with pytest.raises(InputError):
        fixed_points_X0(12, 5)


def test_riemann_hurwitz_consistency_for_rational_quotients():
    # quotient curves known to be rational force the fixed-point count
    # through 2g - 2 = 2(2g' - 2) + nu with g' = 0
    from modcurve.congruence import genus

    for N, d in ((26, 26), (29, 29), (35, 35), (28, 7)):
        g = genus(subgroups_containing_minus1(N)[-1])
        nu = fixed_points_X0(N, d).count
        assert 2 * g - 2 == 2 * (2 * 0 - 2) + nu
