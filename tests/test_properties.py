"""Structural sweeps and randomized property tests across the whole range."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modcurve.atkinlehner import descends
from modcurve.congruence import coset_action, cusps, is_member
from modcurve.matrices import IDENTITY, Mat2
from modcurve.qforms import QForm, reduce_form, reduced_classes
from modcurve.zmodn import (
    crt,
    delta_by_label,
    delta_from_elements,
    hall_divisors,
    subgroups_containing_minus1,
    units,
)
import scalar_oracles as oracle

S_MAT = Mat2(0, -1, 1, 0)


# --------------------------------------------------------------------------
# sweep 1: reduction is a class invariant under unimodular substitutions


def test_reduce_invariant_under_random_transforms():
    rng = random.Random(20260823)
    pool = []
    for _ in range(250):
        g = IDENTITY
        for _ in range(3):
            g = g * Mat2(1, rng.randint(-6, 6), 0, 1) * S_MAT
        g = g * Mat2(1, rng.randint(-6, 6), 0, 1)
        pool.append(g)
    for D in range(-3, -525, -1):
        if D % 4 not in (0, 1):
            continue
        classes = reduced_classes(D)
        for k in range(1000):
            f = classes[rng.randrange(len(classes))]
            g = pool[rng.randrange(len(pool))]
            moved = f.apply(g)
            red, u = reduce_form(moved)
            assert red == f
            assert moved.apply(u) == red


# --------------------------------------------------------------------------
# sweep 2: the analytic cusp count equals the orbit count of T on cosets


def test_cusp_count_equals_T_cycle_count(census_on):
    seen = set()
    for rec in census_on:
        key = (rec.N, rec.delta_label)
        seen.add(key)
        delta = delta_by_label(*key)
        act = coset_action(delta)
        assert _cycle_count(act.sigma_T) == len(cusps(delta))
    assert len(seen) == 182


def _cycle_count(sigma):
    visited = [False] * len(sigma)
    count = 0
    for start in range(len(sigma)):
        if visited[start]:
            continue
        count += 1
        j = start
        while not visited[j]:
            visited[j] = True
            j = sigma[j]
    return count


def test_cusp_count_equals_T_cycle_count_boundary_subgroups():
    for N in (21, 34, 40, 56, 64):
        for delta in subgroups_containing_minus1(N):
            act = coset_action(delta)
            assert _cycle_count(act.sigma_T) == len(cusps(delta))


# --------------------------------------------------------------------------
# sweep 3: descent to the quotient is symmetric in d and N/d


def test_descends_symmetry_sweep(census_on):
    for rec in census_on:
        delta = delta_by_label(rec.N, rec.delta_label)
        for d in hall_divisors(rec.N):
            assert descends(d, delta) == descends(rec.N // d, delta)


# --------------------------------------------------------------------------
# sweep 4: the coset table is regenerated by an independent breadth-first
# search on bottom-row pairs, and the Schreier generators are members


@pytest.mark.parametrize("N,label", [
    (21, "D1"), (34, "D2"), (40, "D6"), (56, "D5"), (63, "D10"), (65, "D2"),
])
def test_coset_table_rebuilt_by_pair_bfs(N, label):
    delta = delta_by_label(N, label)
    act = coset_action(delta)

    def canon(c, d):
        best = None
        for u in delta.elements:
            for s in (1, -1):
                cand = ((s * u * c) % N, (s * u * d) % N)
                if best is None or cand < best:
                    best = cand
        return best

    start = canon(0, 1)
    frontier = [start]
    reached = {start}
    while frontier:
        c, d = frontier.pop()
        for nxt in (canon(d, -c), canon(c, c + d)):  # right mult by S, T
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    assert len(reached) == act.degree
    # the canonical pairs reached are exactly the action's cosets
    assert reached == {tuple(p) for p in act.cosets.tolist()}


@pytest.mark.parametrize("N,label", [(21, "D1"), (34, "D2"), (40, "D6")])
def test_schreier_generators_are_stabilizing_members(N, label):
    delta = delta_by_label(N, label)
    start = oracle.position(N, delta, 0, 1)
    for g in oracle.schreier_generators(N, delta):
        assert g.det == 1
        assert is_member(g, delta)
        assert oracle.act(N, delta, start, g) == start


# --------------------------------------------------------------------------
# randomized algebraic properties


@given(st.integers(1, 10**6), st.integers(1, 10**6),
       st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_crt_property(m1, m2, r1, r2):
    assume(math.gcd(m1, m2) == 1)
    x = crt(r1, m1, r2, m2)
    assert 0 <= x < m1 * m2
    assert x % m1 == r1 % m1
    assert x % m2 == r2 % m2


@given(st.integers(3, 400), st.data())
@settings(max_examples=150, deadline=None)
def test_generated_subgroup_is_closed(N, data):
    gens = data.draw(st.lists(st.sampled_from(units(N)),
                              min_size=1, max_size=3))
    delta = delta_from_elements(N, gens)
    elems = set(delta.elements)
    assert (N - 1) % N in elems  # contains -1
    assert {g % N for g in gens} <= elems
    for x in elems:
        for y in elems:
            assert (x * y) % N in elems
    assert any(delta.elements == s.elements
               for s in subgroups_containing_minus1(N))


@given(st.integers(3, 120), st.integers(1, 10**4))
@settings(max_examples=200, deadline=None)
def test_coset_min_constant_on_cosets(N, a):
    assume(math.gcd(a, N) == 1)
    subs = subgroups_containing_minus1(N)
    for delta in subs:
        m = delta.coset_min(a)
        assert math.gcd(m, N) == 1
        assert any(m == (u * a) % N for u in delta.elements)
        for u in delta.elements:
            assert delta.coset_min(u * a) == m


_mat_entries = st.integers(-30, 30)


@given(*(4 * [_mat_entries]), *(4 * [_mat_entries]))
@settings(max_examples=300, deadline=None)
def test_mat2_algebra(a, b, c, d, e, f, g, h):
    m1 = Mat2(a, b, c, d)
    m2 = Mat2(e, f, g, h)
    prod = m1 * m2
    assert prod.det == m1.det * m2.det
    assert (m1 * m2).trace == (m2 * m1).trace
    assert m1 * IDENTITY == m1
    adj = m1.adjugate()
    assert m1 * adj == Mat2(m1.det, 0, 0, m1.det)
    assert adj * m1 == Mat2(m1.det, 0, 0, m1.det)


@given(st.integers(1, 40), st.integers(-80, 80), st.integers(1, 80))
@settings(max_examples=300, deadline=None)
def test_reduce_form_randomized(p, q, r):
    f = QForm(p, q, r)
    assume(f.disc < 0)
    red, g = reduce_form(f)
    assert red.is_reduced
    assert g.det == 1
    assert f.apply(g) == red
    assert red.disc == f.disc
    assert red.content == f.content
