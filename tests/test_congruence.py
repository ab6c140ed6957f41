"""Coset actions, genus, and cusps, checked against classical formulas."""

from __future__ import annotations

import math

import pytest

import scalar_oracles as oracle
from modcurve.atkinlehner import diamond_matrix
from modcurve.classify import generic_atkin_lehner
from modcurve.congruence import (
    coset_action,
    cusp_field,
    cusp_table,
    cusps,
    genus,
    is_member,
    transversal,
)
from modcurve.errors import InputError
from modcurve.matrices import Mat2
from modcurve.zmodn import (
    delta_by_label,
    hall_divisors,
    subgroups_containing_minus1,
)

S_MAT = Mat2(0, -1, 1, 0)
T_MAT = Mat2(1, 1, 0, 1)


# --------------------------------------------------------------------------
# independent classical oracles


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


def _phi(n: int) -> int:
    out = n
    for p in _prime_factors(n):
        out -= out // p
    return out


def genus_X0(N: int) -> int:
    """Classical genus formula for the level-N curve with upper-triangular
    reduction: g = 1 + mu/12 - nu2/4 - nu3/3 - nuinf/2."""
    mu = N
    for p in _prime_factors(N):
        mu += mu // p
    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in _prime_factors(N):
            if p == 2:
                continue
            nu2 *= 1 + (1 if p % 4 == 1 else -1)
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in _prime_factors(N):
            if p == 3:
                continue
            nu3 *= 1 + (1 if p % 3 == 1 else -1)
    nuinf = sum(_phi(math.gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)
    g12 = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * nuinf
    assert g12 % 12 == 0
    return g12 // 12


def genus_X1(N: int) -> int:
    """Classical genus formula for the unipotent-reduction curve, N >= 5."""
    mu = N * N // 2
    for p in _prime_factors(N):
        mu -= mu // (p * p)
    nuinf = sum(_phi(d) * _phi(N // d) for d in range(1, N + 1) if N % d == 0) // 2
    return 1 + mu // 12 - nuinf // 2


def cusp_count_X0(N: int) -> int:
    return sum(_phi(math.gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)


def cusp_count_X1(N: int) -> int:
    return sum(_phi(d) * _phi(N // d) for d in range(1, N + 1) if N % d == 0) // 2


# --------------------------------------------------------------------------
# genus


def _full(N):
    return subgroups_containing_minus1(N)[-1]


def _minimal(N):
    return subgroups_containing_minus1(N)[0]


@pytest.mark.parametrize("N", list(range(3, 101)))
def test_genus_full_level_matches_classical_formula(N):
    assert genus(N, _full(N)) == genus_X0(N)


@pytest.mark.parametrize("N", list(range(5, 72)))
def test_genus_minimal_level_matches_classical_formula(N):
    assert genus(N, _minimal(N)) == genus_X1(N)


KNOWN_INTERMEDIATE_GENERA = {
    (13, "D1"): 0, (13, "D2"): 0, (15, "D1"): 1, (16, "D1"): 0,
    (17, "D1"): 1, (17, "D2"): 1, (19, "D1"): 1, (20, "D1"): 1,
    (21, "D1"): 3, (21, "D2"): 1, (24, "D3"): 1, (25, "D2"): 0,
    (27, "D1"): 1, (32, "D2"): 1,
    (34, "D1"): 9, (34, "D2"): 5,
    (35, "D3"): 7, (37, "D3"): 4, (37, "D4"): 4,
    (55, "D4"): 9, (63, "D10"): 9, (64, "D3"): 5, (72, "D5"): 21,
}


def test_genus_known_intermediate_values():
    for (N, label), g in KNOWN_INTERMEDIATE_GENERA.items():
        assert genus(N, delta_by_label(N, label)) == g, (N, label)


def test_genus_monotone_under_inclusion():
    # a larger subgroup gives a quotient curve, so genus cannot increase
    for N in (34, 37, 56):
        subs = subgroups_containing_minus1(N)
        for a in subs:
            for b in subs:
                if set(a.elements) <= set(b.elements):
                    assert genus(N, a) >= genus(N, b)


def test_coset_degree_multiplicative():
    for N in (21, 34, 40, 56):
        d0 = coset_action(N, delta_by_label(N, "0")).degree
        for sub in subgroups_containing_minus1(N):
            act = coset_action(N, sub)
            assert act.degree == d0 * sub.index


# --------------------------------------------------------------------------
# cusps


@pytest.mark.parametrize("N", [6, 12, 21, 34, 37, 40, 56, 63, 64])
def test_cusp_counts_against_classical_formulas(N):
    assert len(cusps(N, _full(N))) == cusp_count_X0(N)
    assert len(cusps(N, _minimal(N))) == cusp_count_X1(N)


def test_cusps_squarefree_full_level_all_rational():
    for N in (21, 34, 35, 39):
        for c in cusps(N, delta_by_label(N, "0")):
            assert c.is_rational
            assert cusp_field(N, delta_by_label(N, "0"), c).degree == 1


def test_cusp_fields_above_denominator_three():
    # at level 39 the two order-6 subgroup choices behave differently for
    # cusps with denominator 3: irrational for D2, rational for D3
    d2 = delta_by_label(39, "D2")
    fields = [cusp_field(39, d2, c).degree for c in cusps(39, d2)
              if c.denominator == 3]
    assert fields and all(deg == 2 for deg in fields)
    d3 = delta_by_label(39, "D3")
    fields = [cusp_field(39, d3, c).degree for c in cusps(39, d3)
              if c.denominator == 3]
    assert fields and all(deg == 1 for deg in fields)


def test_cusp_fields_above_denominator_four_at_forty():
    for label in ("D4", "D5"):
        delta = delta_by_label(40, label)
        fields = [cusp_field(40, delta, c).degree for c in cusps(40, delta)
                  if c.denominator == 4]
        assert fields and all(deg == 1 for deg in fields)


def test_cusp_widths_sum_to_index():
    for (N, label) in ((21, "D1"), (34, "D2"), (40, "D6"), (56, "D5")):
        delta = delta_by_label(N, label)
        table = cusp_table(N, delta)
        assert sum(c.width for c in table.classes) == coset_action(N, delta).degree


def test_cusp_matrix_action():
    N = 21
    delta = delta_by_label(N, "D1")
    table = cusp_table(N, delta)
    # T is a member, so it fixes every cusp class
    assert table.images(T_MAT).tolist() == list(range(len(table.classes)))
    # the level-determinant operator swaps the cusps 0 and infinity,
    # and (normalizing the group) permutes the classes
    image = table.images(generic_atkin_lehner(N, N))
    inf_class = table.class_of(1, 0)
    zero_class = table.class_of(0, 1)
    assert image[inf_class] == zero_class
    assert image[zero_class] == inf_class
    assert sorted(image.tolist()) == list(range(len(table.classes)))


def test_cusp_images_refuse_singular_and_oversized_matrices():
    table = cusp_table(21, delta_by_label(21, "D1"))
    with pytest.raises(InputError):
        table.images(Mat2(1, 2, 2, 4))
    with pytest.raises(InputError):
        table.images(Mat2(2**31, 0, 0, 1))


# --------------------------------------------------------------------------
# transversal and Schreier generators


def _transversal_matrices(N, delta):
    return [Mat2(*row) for row in zip(*(col.tolist() for col in transversal(N, delta)))]


@pytest.mark.parametrize("N,label", [(21, "D1"), (34, "D2"), (40, "D6"), (49, "D1")])
def test_transversal_hits_every_coset(N, label):
    delta = delta_by_label(N, label)
    act = coset_action(N, delta)
    reps = _transversal_matrices(N, delta)
    assert len(reps) == act.degree
    assert all(m.det == 1 for m in reps)
    assert reps[act.position(0, 1)] == Mat2(1, 0, 0, 1)
    positions = {act.position(m.c % N, m.d % N) for m in reps}
    assert positions == set(range(act.degree))


@pytest.mark.parametrize("N,label", [(21, "D1"), (34, "D2"), (40, "D6")])
def test_schreier_generators_rebuild_relations(N, label):
    delta = delta_by_label(N, label)
    act = coset_action(N, delta)
    reps = _transversal_matrices(N, delta)
    gens = oracle.schreier_generators(N, delta)
    gen_set = {g.entries() for g in gens} | {(1, 0, 0, 1)}
    gen_set |= {(-a, -b, -c, -d) for (a, b, c, d) in gen_set}
    pos = [act.position(m.c % N, m.d % N) for m in reps]
    for k in range(act.degree):
        for g, mover in ((S_MAT, S_MAT), (T_MAT, T_MAT)):
            prod = reps[k] * g
            j = pos.index(act.act(pos[k], mover))
            elem = prod * reps[j].adjugate()
            assert elem.det == 1
            assert is_member(elem, N, delta)
            assert elem.entries() in gen_set
    for g in gens:
        # members stabilize the identity coset
        start = act.position(0 % N, 1 % N)
        assert act.act(start, g) == start


# --------------------------------------------------------------------------
# the int64 coset space against its scalar oracles

#: Tier-1 compares every subgroup up to this level; beyond it, up to 256,
#: the comparison is a slow sweep (``pytest -m slow``).
ORACLE_LEVEL = 60


def _cusp_test_matrices(N, delta):
    """Normalising matrices of every kind the classifier applies to cusps,
    plus matrices that do not normalise and one of negative determinant."""
    yield T_MAT
    yield S_MAT
    for b in delta.coset_reps():
        yield diamond_matrix(b, N)
    for d in hall_divisors(N):
        if d > 1:
            yield generic_atkin_lehner(N, d)
    yield Mat2(1, 0, N // 2, 1)
    yield Mat2(2, 1, 0, 1)
    yield Mat2(1, 0, 0, 2)
    yield Mat2(0, 1, 1, 0)


@pytest.mark.parametrize("N", [
    N if N <= ORACLE_LEVEL else pytest.param(N, marks=pytest.mark.slow)
    for N in range(3, 257)
])
def test_coset_space_matches_scalar_oracles(N):
    for delta in subgroups_containing_minus1(N):
        act = coset_action(N, delta)
        cosets, position = oracle.coset_space(N, delta)
        assert [tuple(p) for p in act.cosets.tolist()] == list(cosets)
        expected = [position.get((k // N, k % N), -1) for k in range(N * N)]
        assert act.positions.tolist() == expected
        sigma_S, sigma_T = oracle.sigmas(N, delta)
        assert act.sigma_S.tolist() == sigma_S
        assert act.sigma_T.tolist() == sigma_T
        columns = [col.tolist() for col in transversal(N, delta)]
        assert list(zip(*columns)) == [m.entries() for m in oracle.transversal(N, delta)]
        table = cusp_table(N, delta)
        for m in _cusp_test_matrices(N, delta):
            assert table.images(m).tolist() == oracle.cusp_images(N, delta, m), str(m)


# --------------------------------------------------------------------------
# checks that must hold under python -O


def test_checks_survive_optimized_mode(run_optimized):
    # Caller mistakes raise InputError, and a cusp whose Galois orbit size
    # disagrees with the index of Delta^(d) fails the cusp-field cross-check
    # with an InvariantError, even when bare asserts are compiled away.
    code = (
        "from modcurve.classify import coset_fixed_points\n"
        "from modcurve.congruence import (CuspClass, coset_action, cusp_field,\n"
        "                                 cusp_table, lift_to_coprime)\n"
        "from modcurve.errors import InputError, InvariantError\n"
        "from modcurve.matrices import Mat2\n"
        "from modcurve.zmodn import delta_by_label\n"
        "delta = delta_by_label(21, 'D1')\n"
        "cusp = CuspClass(21, (1, 0), 21, 1, 12 // len(delta.elements) + 1)\n"
        "cases = [\n"
        "    (InputError, lambda: lift_to_coprime(2, 4, 6)),\n"
        "    (InputError, lambda: cusp_table(21, delta).class_of(3, 0)),\n"
        "    (InputError, lambda: coset_action(21, delta).position(7, 14)),\n"
        "    (InputError, lambda: coset_fixed_points(13, '0', Mat2(2**31, 0, 0, 1))),\n"
        "    (InvariantError, lambda: cusp_field(21, delta, cusp)),\n"
        "]\n"
        "for error, call in cases:\n"
        "    try:\n"
        "        call()\n"
        "    except error:\n"
        "        continue\n"
        "    raise SystemExit(f'no {error.__name__}')\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 0, proc.stdout + proc.stderr
