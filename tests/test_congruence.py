"""Coset actions, genus, and cusps, checked against classical formulas."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import scalar_oracles as oracle
from modcurve.atkinlehner import diamond_matrix
from modcurve.classify import generic_atkin_lehner
import modcurve.congruence as congruence
from modcurve.congruence import (
    _clear_level_caches,
    _cusp_terms,
    branch_counts,
    coset_action,
    cusp_field,
    cusp_orbit_sizes,
    cusp_table,
    cusps,
    degree,
    genus,
    is_member,
    transversal,
)
from modcurve.errors import (
    CuspCountMismatch,
    FieldDegreeMismatch,
    GenusMismatch,
    InputError,
    NonIntegralGenus,
    NotUnimodular,
)
from modcurve.matrices import Mat2
from modcurve.zmodn import (
    DeltaSubgroup,
    delta_by_label,
    divisors,
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
    assert genus(_full(N)) == genus_X0(N)


@pytest.mark.parametrize("N", list(range(5, 72)))
def test_genus_minimal_level_matches_classical_formula(N):
    assert genus(_minimal(N)) == genus_X1(N)


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
        assert genus(delta_by_label(N, label)) == g, (N, label)


def test_genus_monotone_under_inclusion():
    # a larger subgroup gives a quotient curve, so genus cannot increase
    for N in (34, 37, 56):
        subs = subgroups_containing_minus1(N)
        for a in subs:
            for b in subs:
                if set(a.elements) <= set(b.elements):
                    assert genus(a) >= genus(b)


# The classical lists of the levels at which X_0(N) has genus 0 and genus 1.
X0_RATIONAL = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25)
X0_ELLIPTIC = (11, 14, 15, 17, 19, 20, 21, 24, 27, 32, 36, 49)


def test_genus_gives_the_rational_and_elliptic_x0_lists():
    # The census scope counts these genera instead of reading the lists.
    genera = {N: genus(_full(N)) for N in range(3, 257)}
    assert [N for N, g in genera.items() if g == 0] == [N for N in X0_RATIONAL if N >= 3]
    assert [N for N, g in genera.items() if g == 1] == list(X0_ELLIPTIC)


@pytest.mark.parametrize("N", [
    N if N <= 131 else pytest.param(N, marks=pytest.mark.slow)
    for N in range(3, 401)
])
def test_counting_formulas_match_the_coset_action(N):
    # the branch counts, degree and genus are counted from N and Delta; the
    # coset action built pair by pair must give the same index, and the same
    # branch counts and genus read from its sigma_S and sigma_T by the oracle
    for delta in subgroups_containing_minus1(N):
        act = coset_action(delta)
        assert degree(delta) == len(act.cosets), delta.label
        sigma_S, sigma_T = act.sigma_S.tolist(), act.sigma_T.tolist()
        assert branch_counts(delta) == oracle.branch_counts(sigma_S, sigma_T), delta.label
        assert genus(delta) == oracle.genus(sigma_S, sigma_T), delta.label
    _clear_level_caches()


def test_coset_action_checks_its_count_against_the_formulas(monkeypatch):
    delta = delta_by_label(21, "D1")
    build = coset_action.__wrapped__  # past the cache
    monkeypatch.setattr(congruence, "genus", lambda d: 4)
    with pytest.raises(GenusMismatch):
        build(delta)
    monkeypatch.setattr(congruence, "genus", lambda d: 3)
    monkeypatch.setattr(congruence, "degree", lambda d: 95)
    with pytest.raises(GenusMismatch):
        build(delta)
    monkeypatch.undo()
    assert build(delta).degree == 96
    # e2, e3 and the T-cycles are each compared with the branch counts, so
    # two errors that leave 12g unchanged cannot cancel; mu and 12g are held
    # at their true values, so each field's own comparison must raise
    counts = branch_counts(delta)
    assert counts == (96, 0, 0, 12)
    monkeypatch.setattr(congruence, "degree", lambda d: 96)
    monkeypatch.setattr(congruence, "genus", lambda d: 3)
    for field in (1, 2, 3):
        wrong = tuple(n + (i == field) for i, n in enumerate(counts))
        monkeypatch.setattr(congruence, "branch_counts", lambda d, wrong=wrong: wrong)
        with pytest.raises(GenusMismatch):
            build(delta)
    # the cusp table compares its orbit count with the branch counts' cusps
    monkeypatch.undo()
    coset_action(delta)
    monkeypatch.setattr(congruence, "branch_counts", lambda d: (*counts[:3], 13))
    with pytest.raises(CuspCountMismatch):
        cusp_table.__wrapped__(delta)
    monkeypatch.undo()
    assert len(cusp_table.__wrapped__(delta).classes) == 12


def test_counting_formulas_check_their_input():
    # {+-1, +-2} mod 13 is not a group: its count leaves a remainder
    with pytest.raises(NonIntegralGenus):
        genus(DeltaSubgroup(13, (1, 2, 11, 12), "x"))


def test_coset_degree_multiplicative():
    for N in (21, 34, 40, 56):
        d0 = coset_action(delta_by_label(N, "0")).degree
        for sub in subgroups_containing_minus1(N):
            act = coset_action(sub)
            assert act.degree == d0 * sub.index


# --------------------------------------------------------------------------
# cusps


@pytest.mark.parametrize("N", [6, 12, 21, 34, 37, 40, 56, 63, 64])
def test_cusp_counts_against_classical_formulas(N):
    assert len(cusps(_full(N))) == cusp_count_X0(N)
    assert len(cusps(_minimal(N))) == cusp_count_X1(N)


def test_cusps_squarefree_full_level_all_rational():
    for N in (21, 34, 35, 39):
        for c in cusps(delta_by_label(N, "0")):
            assert c.is_rational
            assert cusp_field(delta_by_label(N, "0"), c).degree == 1


def test_cusp_fields_above_denominator_three():
    # at level 39 the two order-6 subgroup choices behave differently for
    # cusps with denominator 3: irrational for D2, rational for D3
    d2 = delta_by_label(39, "D2")
    fields = [cusp_field(d2, c).degree for c in cusps(d2)
              if c.denominator == 3]
    assert fields and all(deg == 2 for deg in fields)
    d3 = delta_by_label(39, "D3")
    fields = [cusp_field(d3, c).degree for c in cusps(d3)
              if c.denominator == 3]
    assert fields and all(deg == 1 for deg in fields)


def test_cusp_fields_above_denominator_four_at_forty():
    for label in ("D4", "D5"):
        delta = delta_by_label(40, label)
        fields = [cusp_field(delta, c).degree for c in cusps(delta)
                  if c.denominator == 4]
        assert fields and all(deg == 1 for deg in fields)


def test_cusp_field_refuses_a_cusp_of_another_level():
    delta = delta_by_label(34, "D2")
    for cusp in cusps(delta_by_label(35, "0")):
        with pytest.raises(InputError, match="level 35"):
            cusp_field(delta, cusp)


def test_cusp_field_checks_a_non_hall_denominator(monkeypatch):
    # at level 40 the denominator 4 is not a Hall divisor (gcd(4, 10) = 2),
    # yet its cusp fields are checked against cusp_orbit_sizes too
    delta = delta_by_label(40, "D4")
    quartic = [c for c in cusps(delta) if c.denominator == 4]
    sizes = cusp_orbit_sizes(delta)
    assert quartic and {cusp_field(delta, c).degree for c in quartic} == {dict(sizes)[4]}
    wrong = tuple((g, size + (g == 4)) for g, size in sizes)
    monkeypatch.setattr(congruence, "cusp_orbit_sizes", lambda _: wrong)
    for c in quartic:
        with pytest.raises(FieldDegreeMismatch, match="from the denominator 4"):
            cusp_field(delta, c)
    others = [c for c in cusps(delta) if c.denominator != 4]
    assert [cusp_field(delta, c).degree for c in others] == [c.galois_orbit_size for c in others]


def _cusp_orbit_sweep(max_n):
    # the Galois orbit size of every cusp, from its denominator alone
    subgroups = total = 0
    for N in range(3, max_n + 1):
        for delta in subgroups_containing_minus1(N):
            sizes = dict(cusp_orbit_sizes(delta))
            assert list(sizes) == list(divisors(N))
            for c in cusps(delta):
                assert sizes[c.denominator] == c.galois_orbit_size, (N, delta.label, c.rep)
            subgroups += 1
            total += len(cusps(delta))
        _clear_level_caches()
    return subgroups, total


def test_cusp_orbit_sizes_match_the_cusp_tables():
    assert _cusp_orbit_sweep(131) == (780, 28817)


@pytest.mark.slow
def test_cusp_orbit_sizes_match_the_cusp_tables_up_to_256():
    assert _cusp_orbit_sweep(256) == (2200, 146017)


def test_cusps_of_each_denominator_cover_those_of_x0_evenly():
    # the g-th term of the cusp count is |Delta| times the cusps of
    # denominator g, and those are a positive multiple of X_0(N)'s, which
    # the cusp-rationality rule checks in place of a cusp table of X_Delta(N)
    triples = 0
    for N in range(3, 132):
        below = Counter(c.denominator for c in cusps(_full(N)))
        for delta in subgroups_containing_minus1(N):
            above = Counter(c.denominator for c in cusps(delta))
            for g, term in _cusp_terms(delta):
                assert term == delta.order * above[g], (N, delta.label, g)
                assert above[g] % below[g] == 0 < above[g], (N, delta.label, g)
                triples += 1
        _clear_level_caches()
    assert triples == 4709


def test_cusp_widths_sum_to_index():
    for (N, label) in ((21, "D1"), (34, "D2"), (40, "D6"), (56, "D5")):
        delta = delta_by_label(N, label)
        table = cusp_table(delta)
        assert sum(c.width for c in table.classes) == coset_action(delta).degree


def test_cusp_matrix_action():
    N = 21
    delta = delta_by_label(N, "D1")
    table = cusp_table(delta)
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
    table = cusp_table(delta_by_label(21, "D1"))
    with pytest.raises(InputError):
        table.images(Mat2(1, 2, 2, 4))
    with pytest.raises(InputError):
        table.images(Mat2(2**31, 0, 0, 1))


# --------------------------------------------------------------------------
# transversal and Schreier generators


def _transversal_matrices(N, delta):
    return [Mat2(*row) for row in zip(*(col.tolist() for col in transversal(delta)))]


@pytest.mark.parametrize("N,label", [(21, "D1"), (34, "D2"), (40, "D6"), (49, "D1")])
def test_transversal_hits_every_coset(N, label):
    delta = delta_by_label(N, label)
    act = coset_action(delta)
    reps = _transversal_matrices(N, delta)
    assert len(reps) == act.degree
    assert all(m.det == 1 for m in reps)
    assert reps[oracle.position(N, delta, 0, 1)] == Mat2(1, 0, 0, 1)
    positions = {oracle.position(N, delta, m.c, m.d) for m in reps}
    assert positions == set(range(act.degree))


@pytest.mark.parametrize("N,label", [(21, "D1"), (34, "D2"), (40, "D6")])
def test_schreier_generators_rebuild_relations(N, label):
    delta = delta_by_label(N, label)
    act = coset_action(delta)
    reps = _transversal_matrices(N, delta)
    gens = oracle.schreier_generators(N, delta)
    gen_set = {g.entries() for g in gens} | {(1, 0, 0, 1)}
    gen_set |= {(-a, -b, -c, -d) for (a, b, c, d) in gen_set}
    pos = [oracle.position(N, delta, m.c, m.d) for m in reps]
    for k in range(act.degree):
        for g, mover in ((S_MAT, S_MAT), (T_MAT, T_MAT)):
            prod = reps[k] * g
            j = pos.index(oracle.act(N, delta, pos[k], mover))
            elem = prod * reps[j].adjugate()
            assert elem.det == 1
            assert is_member(elem, delta)
            assert elem.entries() in gen_set
    for g in gens:
        # members stabilize the identity coset
        start = oracle.position(N, delta, 0, 1)
        assert oracle.act(N, delta, start, g) == start


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


def _check_coset_index(N, delta):
    act = coset_action(delta)
    c, d = np.divmod(np.arange(N * N, dtype=np.int64), N)
    unimodular = np.gcd(np.gcd(c, d), N) == 1
    # a unimodular pair lies in the coset of its canonical pair
    canon = oracle.canonical_pair_table(N, delta.elements)[unimodular]
    keys = np.unique(canon)
    positions = np.array([oracle.position(N, delta, k // N, k % N) for k in keys.tolist()])
    expected = positions[np.searchsorted(keys, canon)]
    c, d = c[unimodular], d[unimodular]
    assert np.array_equal(act.coset_index(c, d), expected), delta.label
    assert np.array_equal(act.coset_index(c - N, d + 2 * N), expected), delta.label
    # every other pair is refused on its own
    x, y = np.nonzero(~unimodular.reshape(N, N))
    assert all(_refused(act, *pair) for pair in zip(x.tolist(), y.tolist())), delta.label


def _refused(act, c, d):
    try:
        act.coset_index(c, d)
    except NotUnimodular:
        return True
    return False


@pytest.mark.parametrize("N", [
    N if N <= ORACLE_LEVEL or N in (256, 330) else pytest.param(N, marks=pytest.mark.slow)
    for N in [*range(3, 257), 330]
])
def test_pair_table_matches_scalar_oracle(N):
    # every pair (c, d) mod N, read through coset_index, against the
    # oracle's table of canonical pairs
    for delta in subgroups_containing_minus1(N):
        _check_coset_index(N, delta)


@pytest.mark.slow
@pytest.mark.parametrize("subgroup", [_full, _minimal])
def test_pair_table_matches_scalar_oracle_at_the_level_bound(subgroup):
    _check_coset_index(1024, subgroup(1024))


def test_coset_action_at_the_level_bound_builds_no_pair_table():
    # built through a table over the N^2 pairs, this coset action peaked at
    # 67 MB under tracemalloc; the record it keeps takes 17 MB
    delta = _minimal(1021)
    _clear_level_caches()
    tracemalloc.start()
    try:
        act = coset_action(delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _clear_level_caches()
    assert act.degree == degree(delta)
    assert peak < 50 << 20


def _check_cusp_labels(N, delta):
    table = cusp_table(delta)
    labels, reps = oracle.cusp_labels(N, delta)
    x, y = np.divmod(np.arange(N * N, dtype=np.int64), N)
    cusp_pair = np.gcd(np.gcd(x, y), N) == 1
    # the oracle labels exactly the cusp pairs, and class_of agrees on each
    assert np.array_equal(labels >= 0, cusp_pair), delta.label
    classes = table.class_of(x[cusp_pair], y[cusp_pair])
    assert np.array_equal(classes, labels[cusp_pair]), delta.label
    assert [c.rep for c in table.classes] == reps, delta.label


@pytest.mark.parametrize("N", [
    N if N <= ORACLE_LEVEL or N in (256, 330) else pytest.param(N, marks=pytest.mark.slow)
    for N in [*range(3, 257), 330]
])
def test_cusp_labels_match_scalar_oracle(N):
    for delta in subgroups_containing_minus1(N):
        _check_cusp_labels(N, delta)


@pytest.mark.slow
@pytest.mark.parametrize("N", [1021, 1024])
@pytest.mark.parametrize("subgroup", [_full, _minimal])
def test_cusp_labels_match_scalar_oracle_at_the_level_bound(N, subgroup):
    _check_cusp_labels(N, subgroup(N))


@pytest.mark.parametrize("N", [
    N if N <= ORACLE_LEVEL else pytest.param(N, marks=pytest.mark.slow)
    for N in range(3, 257)
])
def test_coset_space_matches_scalar_oracles(N):
    for delta in subgroups_containing_minus1(N):
        act = coset_action(delta)
        cosets, _ = oracle.coset_space(N, delta)
        assert [tuple(p) for p in act.cosets.tolist()] == list(cosets)
        sigma_S, sigma_T = oracle.sigmas(N, delta)
        assert act.sigma_S.tolist() == sigma_S
        assert act.sigma_T.tolist() == sigma_T
        cycles = oracle._cycles(sigma_T)
        assert act.cycle_starts.tolist() == [cyc[0] for cyc in cycles]
        assert act.cycle_widths.tolist() == [len(cyc) for cyc in cycles]
        assert genus(delta) == oracle.genus(sigma_S, sigma_T)
        columns = [col.tolist() for col in transversal(delta)]
        assert list(zip(*columns)) == [m.entries() for m in oracle.transversal(N, delta)]
        table = cusp_table(delta)
        for m in _cusp_test_matrices(N, delta):
            assert table.images(m).tolist() == oracle.cusp_images(N, delta, m), str(m)


@pytest.mark.parametrize("N,label", [(330, "D1"), (256, "D1"), (97, "1")])
def test_coset_record_keeps_one_row_per_coset(N, label):
    # the coset record keeps no table over the N^2 pairs: its arrays have
    # one row per coset, per residue mod N or, for the pair -> coset index,
    # per divisor of N; its degree and T-cycles agree with degree() and with
    # the cusps of the cusp table
    delta = delta_by_label(N, label)
    act = coset_action(delta)
    arrays = [v for v in vars(act).values() if isinstance(v, np.ndarray)]
    assert all(len(arr) <= act.degree for arr in arrays)
    assert all(arr.size < N * N for arr in arrays)
    assert act.column_rank.shape == (len(divisors(N)), N)
    assert degree(delta) == act.degree
    assert act.cycle_widths.sum() == act.degree
    assert len(act.cycle_starts) == len(cusp_table(delta).classes)


@pytest.mark.parametrize("N,label", [(330, "D1"), (256, "D1"), (97, "1")])
def test_cusp_table_keeps_one_entry_per_reduced_pair(N, label):
    # no array of the cusp table grows past the P(N) = sum_y gcd(y, N)
    # reduced pairs, and class_of checks every pair of an array
    table = cusp_table(delta_by_label(N, label))
    arrays = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
    reduced_pairs = sum(math.gcd(y, N) for y in range(N))
    assert arrays and all(arr.size <= reduced_pairs for arr in [*arrays, *table.lifts])
    x, y = np.array([c.rep for c in table.classes], dtype=np.int64).T
    assert table.class_of(x, y).tolist() == list(range(len(table.classes)))
    assert isinstance(table.class_of(int(x[0]), int(y[0])), int)
    with pytest.raises(NotUnimodular):
        table.class_of(np.append(x, 0), np.append(y, 0))
    with pytest.raises(NotUnimodular):
        cusp_table(delta_by_label(21, "D1")).class_of(3, 0)


# --------------------------------------------------------------------------
# checks that must hold under python -O


def test_checks_survive_optimized_mode(run_optimized):
    # Caller mistakes raise InputError, and a cusp whose Galois orbit size
    # disagrees with the index of Delta^(d) fails the cusp-field cross-check
    # with an InvariantError, even when bare asserts are compiled away.
    code = (
        "from modcurve.classify import coset_fixed_points\n"
        "from modcurve.congruence import (CuspClass, cusp_field, cusp_table,\n"
        "                                 lift_to_coprime)\n"
        "from modcurve.errors import InputError, InvariantError\n"
        "from modcurve.matrices import Mat2\n"
        "from modcurve.zmodn import delta_by_label\n"
        "delta = delta_by_label(21, 'D1')\n"
        "cusp = CuspClass(21, (1, 0), 21, 1, 12 // len(delta.elements) + 1)\n"
        "cases = [\n"
        "    (InputError, lambda: lift_to_coprime(2, 4, 6)),\n"
        "    (InputError, lambda: cusp_table(delta).class_of(3, 0)),\n"
        "    (InputError, lambda: coset_fixed_points(delta_by_label(13, '0'),\n"
        "                                            Mat2(2**31, 0, 0, 1))),\n"
        "    (InvariantError, lambda: cusp_field(delta, cusp)),\n"
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
