"""Arithmetic of Z/NZ, unit groups and subgroup enumeration."""

from __future__ import annotations

import math

import pytest

import scalar_oracles
from modcurve import zmodn
from modcurve.errors import InputError, MalformedSubgroup, NotCoprime, UnknownDelta
from modcurve.zmodn import (
    SUBGROUP_LEVEL_LIMIT,
    crt,
    delta_by_label,
    delta_from_elements,
    divisors,
    hall_divisors,
    is_hall_divisor,
    prime_divisors,
    subgroups_containing_minus1,
    totient,
    units,
)

# Known subgroup inventories: N -> (total subgroups containing -1,
# intermediate count).  Intermediate = strictly between {+-1} and the units.
SUBGROUP_COUNTS = {
    13: (4, 2),
    15: (3, 1),
    16: (3, 1),
    17: (4, 2),
    19: (3, 1),
    20: (3, 1),
    21: (4, 2),
    24: (5, 3),
    28: (4, 2),
    34: (4, 2),
    37: (6, 4),
    40: (8, 6),
    48: (8, 6),
    51: (5, 3),
    56: (10, 8),
    60: (8, 6),
    63: (12, 10),
    65: (16, 14),
    72: (10, 8),
    95: (9, 7),
    624: (108, 106),
    720: (108, 106),
    625: (8, 6),
    1250: (8, 6),
    840: (236, 234),
    1000: (24, 22),
    1680: (498, 496),
    1729: (400, 398),
    2003: (8, 6),
    2040: (511, 509),
}

# Known element sets, keyed by canonical label (order ascending, ties by
# lexicographic order on the sorted element tuple).
KNOWN_ELEMENTS = {
    (13, "D1"): {1, 5, 8, 12},
    (13, "D2"): {1, 3, 4, 9, 10, 12},
    (15, "D1"): {1, 4, 11, 14},
    (16, "D1"): {1, 7, 9, 15},
    (17, "D1"): {1, 4, 13, 16},
    (17, "D2"): {1, 2, 4, 8, 9, 13, 15, 16},
    (19, "D1"): {1, 7, 8, 11, 12, 18},
    (20, "D1"): {1, 9, 11, 19},
    (21, "D1"): {1, 8, 13, 20},
    (21, "D2"): {1, 4, 5, 16, 17, 20},
    (24, "D3"): {1, 11, 13, 23},
    (25, "D2"): {1, 4, 6, 9, 11, 14, 16, 19, 21, 24},
    (27, "D1"): {1, 8, 10, 17, 19, 26},
    (32, "D2"): {1, 7, 9, 15, 17, 23, 25, 31},
    (34, "D2"): {1, 9, 13, 15, 19, 21, 25, 33},
    (35, "D2"): {1, 11, 16, 19, 24, 34},
    (35, "D3"): {1, 6, 8, 13, 22, 27, 29, 34},
    (37, "D3"): {1, 6, 8, 10, 11, 14, 23, 26, 27, 29, 31, 36},
    (39, "D2"): {1, 16, 17, 22, 23, 38},
    (44, "D1"): {1, 21, 23, 43},
    (55, "D3"): {1, 16, 19, 24, 26, 29, 31, 36, 39, 54},
    (65, "D1"): {1, 8, 57, 64},
    (65, "D2"): {1, 14, 51, 64},
    (65, "D3"): {1, 18, 47, 64},
}


def brute_force_subgroups(N: int) -> set[tuple[int, ...]]:
    """All subgroups of (Z/NZ)* containing -1, by closure of generator sets."""

    def close(gens: frozenset[int]) -> tuple[int, ...]:
        have = set(gens) | {1 % N, (N - 1) % N}
        grew = True
        while grew:
            grew = False
            for a in list(have):
                for b in list(have):
                    c = a * b % N
                    if c not in have:
                        have.add(c)
                        grew = True
        return tuple(sorted(have))

    found = {close(frozenset())}
    frontier = list(found)
    while frontier:
        new = []
        for sub in frontier:
            for g in units(N):
                bigger = close(frozenset(sub) | {g})
                if bigger not in found:
                    found.add(bigger)
                    new.append(bigger)
        frontier = new
    return found


@pytest.mark.parametrize("N", sorted(SUBGROUP_COUNTS))
def test_subgroup_counts(N):
    subs = subgroups_containing_minus1(N)
    total, intermediate = SUBGROUP_COUNTS[N]
    assert len(subs) == total
    inters = [s for s in subs if not s.is_minimal and not s.is_full]
    assert len(inters) == intermediate


@pytest.mark.parametrize("N", [13, 21, 24, 35, 40, 56, 63, 65, 120, 168])
def test_enumeration_matches_brute_force(N):
    subs = subgroups_containing_minus1(N)
    assert {s.elements for s in subs} == brute_force_subgroups(N)


@pytest.mark.parametrize("N", [
    N if N <= 400 else pytest.param(N, marks=pytest.mark.slow)
    for N in range(3, 1025)
])
def test_sylow_enumeration_matches_the_whole_group_search(N):
    # the element tuples in order, and so the labels, of the search over
    # the whole unit group that the one-Sylow-part-at-a-time search replaced
    subs = subgroups_containing_minus1(N)
    assert [s.elements for s in subs] == scalar_oracles.subgroup_search(N)


def test_products_of_sylow_parts_are_checked(monkeypatch):
    search = zmodn._part_subgroups
    enumerate_uncached = subgroups_containing_minus1.__wrapped__
    # every subgroup of a part listed twice: two products coincide
    monkeypatch.setattr(zmodn, "_part_subgroups", lambda N, part, base: 2 * search(N, part, base))
    with pytest.raises(MalformedSubgroup):
        enumerate_uncached(21)
    # {1, 8} modulo 21 is no subgroup of the 3-part {1, 4, 16}: its product
    # with the 2-part {1, 8, 13, 20} has 4 elements, not 8
    monkeypatch.setattr(zmodn, "_part_subgroups", lambda N, part, base:
                        search(N, part, base) if N - 1 in base else [frozenset({1, 8})])
    with pytest.raises(MalformedSubgroup):
        enumerate_uncached(21)


@pytest.mark.parametrize("N", [21, 40, 56, 63])
def test_every_subgroup_is_closed_and_extension_closed(N):
    subs = subgroups_containing_minus1(N)
    listed = {s.elements for s in subs}
    for s in subs:
        have = set(s.elements)
        for a in have:
            for b in have:
                assert a * b % N in have
            assert pow(a, -1, N) in have
        # every cyclic extension of a listed subgroup is again listed
        for g in units(N):
            extended = set(s.elements)
            frontier = {g}
            while frontier:
                extended |= frontier
                frontier = {
                    a * b % N for a in extended for b in extended
                } - extended
            assert tuple(sorted(extended)) in listed


def test_known_element_sets():
    for (N, label), expected in KNOWN_ELEMENTS.items():
        assert set(delta_by_label(N, label).elements) == expected, (N, label)


def test_labels_sorted_by_order_then_lex():
    for N in (40, 56, 63):
        subs = subgroups_containing_minus1(N)
        keys = [(s.order, s.elements) for s in subs]
        assert keys == sorted(keys)
        assert subs[0].label == "1" and subs[-1].label == "0"
        inter_labels = [s.label for s in subs if not s.is_minimal and not s.is_full]
        assert inter_labels == [f"D{i}" for i in range(1, len(inter_labels) + 1)]


def test_delta_by_label_variants():
    ref = delta_by_label(21, "D1")
    assert delta_by_label(21, "d1") == ref
    assert delta_by_label(21, "Δ1") == ref  # Δ1
    assert delta_by_label(21, "0").is_full
    assert delta_by_label(21, "1").is_minimal
    with pytest.raises(UnknownDelta):
        delta_by_label(21, "D7")
    # "0" is the full group at every level, also at N = 3, 4, 6, where the
    # one subgroup is {+-1} and carries the label "1"
    for N in range(3, 61):
        assert delta_by_label(N, "0").is_full
        assert delta_by_label(N, "0") == subgroups_containing_minus1(N)[-1]
    assert delta_by_label(4, "0").label == "1"


def test_delta_from_elements_closes_and_labels():
    assert delta_from_elements(21, [8]).label == "D1"
    assert delta_from_elements(21, [4]).label == "D2"
    assert delta_from_elements(34, [9, 13]).label == "D2"
    # generators that force the full group
    assert delta_from_elements(21, [2]).label == "0"
    with pytest.raises(NotCoprime):
        delta_from_elements(21, [7])


def test_minimum_level():
    with pytest.raises(InputError):
        subgroups_containing_minus1(2)


def test_coset_structure():
    delta = delta_by_label(34, "D2")
    reps = delta.coset_reps()
    assert len(reps) == delta.index == 2
    seen = set()
    for r in reps:
        coset = {r * h % 34 for h in delta.elements}
        assert delta.coset_min(r) == min(coset)
        seen |= coset
    assert seen == set(units(34))


def test_unit_group_small_orders():
    for N, phi in [(3, 2), (8, 4), (13, 12), (21, 12), (60, 16), (131, 130)]:
        assert len(units(N)) == totient(N) == phi
    for N in (2, 3, 10, 64, 97, 840):
        assert units(N) == tuple(a for a in range(1, N) if math.gcd(a, N) == 1)
    for N in (1, 0, -5):
        with pytest.raises(InputError):
            units(N)
    # phi(n) against a count of the residues prime to n (0 is one at n = 1)
    for n in range(1, SUBGROUP_LEVEL_LIMIT + 1):
        assert totient(n) == sum(math.gcd(a, n) == 1 for a in range(n)), n


def test_hall_divisors():
    assert hall_divisors(12) == [1, 3, 4, 12]
    assert hall_divisors(34) == [1, 2, 17, 34]
    assert hall_divisors(64) == [1, 64]
    # the predicate picks out exactly the Hall divisors, and nothing below 1
    for n in range(1, 201):
        assert [d for d in range(-1, n + 2) if is_hall_divisor(d, n)] == hall_divisors(n), n
    # divisors, their primes and the Hall divisors against range scans
    for n in range(1, SUBGROUP_LEVEL_LIMIT + 1):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        # a divisor p > 1 of n is prime when no divisor of n in (1, p) divides it
        primes = [p for p in divs[1:] if all(p % e for e in divs[1:] if e < p)]
        assert divisors(n) == divs, n
        assert prime_divisors(n) == primes, n
        assert hall_divisors(n) == [d for d in divs if math.gcd(d, n // d) == 1], n
    for n in (0, -4):
        with pytest.raises(InputError):
            divisors(n)
    # the part of N built from the primes of m2, as the stratum scan of
    # qforms computes it, against a prime-by-prime product
    for N in range(1, 1025):
        for m2 in (d for d in range(1, N + 1) if N % d == 0):
            n2 = 1
            for p in (p for p in range(2, m2 + 1) if m2 % p == 0 and
                      all(p % q for q in range(2, p))):
                while N % (n2 * p) == 0:
                    n2 *= p
            assert math.gcd(N, m2 ** N.bit_length()) == n2, (N, m2)


def test_crt():
    assert crt(2, 3, 3, 5) % 15 == 8
    with pytest.raises(InputError):
        crt(1, 6, 1, 4)


def test_invariants_survive_optimized_mode(run_optimized):
    # Under ``python -O`` a bare assert vanishes; the postconditions of
    # DeltaSubgroup must still raise.
    code = (
        "from modcurve.errors import InvariantError\n"
        "from modcurve.zmodn import DeltaSubgroup\n"
        "for make in (lambda: DeltaSubgroup(13, (12, 1), 'x'),\n"
        "             lambda: DeltaSubgroup(13, (1, 3, 9), 'x')):\n"
        "    try:\n"
        "        make()\n"
        "    except InvariantError:\n"
        "        continue\n"
        "    raise SystemExit('no InvariantError')\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 0, proc.stdout + proc.stderr
