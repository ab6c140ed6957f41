"""The classifier: the full census, witnesses, and elimination evidence."""

from __future__ import annotations

from collections import Counter

import pytest

from modcurve.atkinlehner import descends, diamond_matrix, hat_W, normalizes
from modcurve.classify import (
    Classifier,
    _involution_counts,
    classify_curve,
    coset_fixed_points,
    cuspidal_fixed_count,
    generic_atkin_lehner,
    involution_quotient_genus,
    lift_fixed_points,
)
from modcurve.congruence import (
    _clear_level_caches,
    coset_action,
    cusp_table,
    genus,
    transversal,
)
from modcurve.errors import InputError
from modcurve.facts import FactBook, default_facts_path
from modcurve.matrices import Mat2
from modcurve.qforms import fixed_points_X0
from modcurve.zmodn import delta_by_label, hall_divisors, subgroups_containing_minus1
import scalar_oracles

# --------------------------------------------------------------------------
# frozen golden data
#
# The 25 curves with a bielliptic involution: genus, the involution names
# every published account of these curves lists, and the extra involutions
# the search legitimately finds on top of them.

BIELLIPTIC_TABLE: dict[tuple[int, str], tuple[int, set[str]]] = {
    (21, "D1"): (3, {"W^_21", "[2]W^_21", "[4]W^_21"}),
    (24, "D1"): (3, {"[7]", "W^_24", "[7]W^_24", "W^_8", "[7]W^_8"}),
    (24, "D2"): (3, {"[5]", "W^_24", "[5]W^_24", "W^_8", "[5]W^_8"}),
    (26, "D1"): (4, {"W^_26", "[3]W^_26", "[7]W^_26"}),
    (26, "D2"): (4, {"W^_26", "[5]W^_26"}),
    (28, "D1"): (4, {"[[1,0],[14,1]]", "W^_7", "[3]W^_7", "[5]W^_7"}),
    (28, "D2"): (4, {"W^_7", "[5]W^_7"}),
    (29, "D2"): (4, {"W^_29", "[2]W^_29"}),
    (30, "D1"): (5, {"W^_15", "[7]W^_15"}),
    (32, "D1"): (5, {"[7]"}),
    (33, "D2"): (5, {"W^_11", "[5]W^_11"}),
    (34, "D2"): (5, {"W^_2"}),
    (35, "D3"): (7, {"W^_5"}),
    (35, "D4"): (5, {"W^_35", "[2]W^_35"}),
    (36, "D2"): (3, {"[5]", "W^_36", "[5]W^_36"}),
    (37, "D3"): (4, set()),
    (39, "D4"): (5, {"W^_39", "[2]W^_39"}),
    (40, "D6"): (5, {"[[1,0],[20,1]]", "[[-10,1],[-120,10]]",
                     "[3][[-10,1],[-120,10]]"}),
    (41, "D4"): (5, {"W^_41", "[3]W^_41"}),
    (45, "D4"): (5, {"W^_9"}),
    (48, "D6"): (5, {"[[1,0],[24,1]]", "[[-6,1],[-48,6]]",
                     "[5][[-6,1],[-48,6]]"}),
    (49, "D2"): (3, {"W^_49", "[2]W^_49", "[3]W^_49"}),
    (50, "D2"): (4, {"W^_50", "[3]W^_50"}),
    (55, "D4"): (9, {"W^_11"}),
    (64, "D3"): (5, {"[[1,0],[32,1]]"}),
}

ALLOWED_EXTRA_WITNESSES: dict[tuple[int, str], set[str]] = {
    (26, "D1"): {"W^_2"},
    (28, "D1"): {"[5]W_4"},
    (30, "D1"): {"W^_6"},
    (39, "D4"): {"W^_3"},
}

RATIONAL_CURVES = {(13, "D1"), (13, "D2"), (16, "D1"), (25, "D2")}
ELLIPTIC_CURVES = {
    (15, "D1"), (17, "D1"), (17, "D2"), (19, "D1"), (20, "D1"),
    (21, "D2"), (24, "D3"), (27, "D1"), (32, "D2"),
}

# For each eliminated curve: genus and the set of elimination rules the
# engine establishes, frozen as a regression.  Letters: U unramified-cover,
# C castelnuovo, V covered-by-non-bielliptic, R cusp-rationality,
# F field-of-definition, N count-bound, L lift-conflict, E curated-verdict.

RULE_LETTERS = {
    "U": "unramified-cover",
    "C": "castelnuovo",
    "V": "covered-by-non-bielliptic",
    "R": "cusp-rationality",
    "F": "field-of-definition",
    "N": "count-bound",
    "L": "lift-conflict",
    "E": "curated-verdict",
}

NOT_BIELLIPTIC_TABLE: dict[tuple[int, str], str] = {
    (25, "D1"): "4:E", (29, "D1"): "8:F",
    (31, "D1"): "6:F", (31, "D2"): "6:F",
    (33, "D1"): "11:R", (34, "D1"): "9:CL",
    (35, "D1"): "13:R", (35, "D2"): "9:R",
    (36, "D1"): "7:EL",
    (37, "D1"): "16:FU", (37, "D2"): "10:VFU", (37, "D4"): "4:E",
    (38, "D1"): "10:CR",
    (39, "D1"): "17:NVU", (39, "D2"): "9:R", (39, "D3"): "9:N",
    (40, "D1"): "13:VRU", (40, "D2"): "13:RU", (40, "D3"): "9:RU",
    (40, "D4"): "7:R", (40, "D5"): "7:R",
    (41, "D1"): "21:VF", (41, "D2"): "11:F", (41, "D3"): "11:FU",
    (42, "D1"): "13:R", (42, "D2"): "9:CR",
    (43, "D1"): "15:F", (43, "D2"): "9:FU",
    (44, "D1"): "16:CRU", (44, "D2"): "8:RU",
    (45, "D1"): "21:CVRU", (45, "D2"): "9:CR", (45, "D3"): "11:NU",
    (48, "D1"): "19:CVRU", (48, "D2"): "19:CNVU", (48, "D3"): "13:VRU",
    (48, "D4"): "7:RU", (48, "D5"): "7:LU",
    (49, "D1"): "19:CF", (50, "D1"): "22:CN",
    (51, "D1"): "33:VR", (51, "D2"): "17:VR", (51, "D3"): "9:R",
    (53, "D1"): "40:F", (53, "D2"): "8:FU",
    (54, "D1"): "10:CR",
    (55, "D1"): "41:VR", (55, "D2"): "21:R", (55, "D3"): "17:R",
    (56, "D1"): "31:CVRU", (56, "D2"): "31:CVRU", (56, "D3"): "25:CVRU",
    (56, "D4"): "21:VRU", (56, "D5"): "13:CRU", (56, "D6"): "9:RU",
    (56, "D7"): "11:RU", (56, "D8"): "11:NU",
    (60, "D1"): "29:VRU", (60, "D2"): "29:VRU", (60, "D3"): "25:CVRU",
    (60, "D4"): "15:RU", (60, "D5"): "15:RU", (60, "D6"): "13:RU",
    (61, "D1"): "56:CVFU", (61, "D2"): "36:CVFU", (61, "D3"): "26:VFU",
    (61, "D4"): "16:F", (61, "D5"): "12:FU", (61, "D6"): "8:FU",
    (62, "D1"): "31:CR", (62, "D2"): "19:R",
    (63, "D1"): "49:CVRU", (63, "D2"): "33:CVRU", (63, "D3"): "33:CVRU",
    (63, "D4"): "33:CVRU", (63, "D5"): "25:CVR", (63, "D6"): "17:RU",
    (63, "D7"): "17:RU", (63, "D8"): "17:RU", (63, "D9"): "13:R",
    (63, "D10"): "9:CR",
    (64, "D1"): "37:CVFU", (64, "D2"): "13:FU",
    (65, "D1"): "55:CVFU", (65, "D2"): "61:CVFU", (65, "D3"): "55:CVFU",
    (65, "D4"): "41:VFU", (65, "D5"): "25:VF", (65, "D6"): "31:CVFU",
    (65, "D7"): "31:CVFU", (65, "D8"): "19:VFU", (65, "D9"): "19:VFU",
    (65, "D10"): "21:VFU", (65, "D11"): "13:F", (65, "D12"): "9:F",
    (65, "D13"): "11:FU", (65, "D14"): "11:FU",
    (69, "D1"): "67:R", (69, "D2"): "13:R",
    (71, "D1"): "36:F", (71, "D2"): "26:F",
    (72, "D1"): "49:CVFU", (72, "D2"): "49:CVFU", (72, "D3"): "41:CVFU",
    (72, "D4"): "25:CVFU", (72, "D5"): "21:CVFU", (72, "D6"): "13:FU",
    (72, "D7"): "13:FU", (72, "D8"): "9:CFU",
    (75, "D1"): "73:CVFU", (75, "D2"): "37:CFU", (75, "D3"): "17:CVF",
    (75, "D4"): "9:F",
    (79, "D1"): "66:F", (79, "D2"): "18:FU",
    (81, "D1"): "46:CVFU", (81, "D2"): "10:CF",
    (89, "D1"): "133:VF", (89, "D2"): "67:F", (89, "D3"): "27:VFU",
    (89, "D4"): "13:F",
    (92, "D1"): "100:CVRU", (92, "D2"): "20:RU",
    (95, "D1"): "145:VF", (95, "D2"): "97:VF", (95, "D3"): "73:VF",
    (95, "D4"): "49:VF", (95, "D5"): "33:VF", (95, "D6"): "25:F",
    (95, "D7"): "17:F",
    (101, "D1"): "176:VF", (101, "D2"): "76:CVFU", (101, "D3"): "36:F",
    (101, "D4"): "16:FU",
    (119, "D1"): "241:VF", (119, "D2"): "161:VF", (119, "D3"): "121:VF",
    (119, "D4"): "81:VF", (119, "D5"): "61:VF", (119, "D6"): "41:VF",
    (119, "D7"): "31:F", (119, "D8"): "21:F",
    (131, "D1"): "131:F", (131, "D2"): "51:F",
}

CENSUS_LEVELS = [
    13, 15, 16, 17, 19, 20, 21, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33,
    34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 48, 49, 50, 51, 53,
    54, 55, 56, 60, 61, 62, 63, 64, 65, 69, 71, 72, 75, 79, 81, 89, 92,
    95, 101, 119, 131,
]


def _published_label(N: int, index: int) -> str:
    """Published row index -> engine label.  Published tables order the
    subgroups of one level by order alone; at N = 56 the three order-8
    subgroups appear there in a different sequence than the lexicographic
    tie-break used here."""
    if N == 56:
        return {6: "D7", 7: "D8", 8: "D6"}.get(index, f"D{index}")
    return f"D{index}"


# Genus >= 2 curves eliminated through a cover of a bielliptic target
# (degree-2 covers of elliptic curves would be needed for biellipticity,
# and the listed cover degrees rule that out): (level, published index) ->
# (target key, cover degree).  Targets: (M, "0") full level, (M, "1")
# minimal level, (M, "Dk") intermediate.

COVER_TABLE_BIELLIPTIC_TARGETS = {
    (37, 1): ((37, "D3"), 3),
    (37, 2): ((37, "D3"), 2),
    (40, 2): ((40, "D6"), 2),
    (40, 3): ((20, "1"), 2),
    (44, 1): ((22, "1"), 2),
    (44, 2): ((44, "0"), 2),
    (45, 3): ((45, "0"), 3),
    (48, 4): ((24, "D1"), 2),
    (48, 5): ((24, "D2"), 2),
    (56, 6): ((56, "0"), 2),
    (56, 7): ((56, "0"), 2),
    (63, 6): ((63, "0"), 3),
    (63, 7): ((63, "0"), 3),
    (63, 8): ((63, "0"), 3),
    (64, 2): ((64, "D3"), 2),
    (72, 6): ((72, "0"), 2),
    (72, 7): ((72, "0"), 2),
}

COVER_TABLE_NON_BIELLIPTIC_TARGETS = {
    (34, 1): ((17, "D1"), 3),
    (45, 2): ((15, "1"), 3),
    (49, 1): ((49, "0"), 7),
    (50, 1): ((25, "D1"), 3),
    (54, 1): ((27, "D1"), 3),
    (56, 5): ((28, "D1"), 2),
    (63, 10): ((21, "D2"), 3),
    (72, 5): ((24, "0"), 9),
    (72, 8): ((24, "D3"), 3),
    (81, 2): ((27, "D1"), 3),
}

# Levels whose intermediate curves are all eliminated by cusp or fixed-point
# fields of definition alone (no cover argument needed).
FIELD_ELIMINATION_LEVELS = [31, 43, 53, 61, 65, 71, 75, 79, 89, 95, 101,
                            119, 131]


# --------------------------------------------------------------------------
# census shape


def test_census_size_and_levels(census_on):
    assert len(census_on) == 182
    assert sorted({r.N for r in census_on}) == CENSUS_LEVELS


def test_census_statuses(census_on):
    counts = Counter(r.status for r in census_on)
    assert counts == {
        "rational": 4,
        "elliptic": 9,
        "hyperelliptic": 1,
        "bielliptic": 24,
        "not-bielliptic": 144,
    }


def test_census_covers_every_intermediate_once(census_on):
    keys = [(r.N, r.delta_label) for r in census_on]
    assert len(keys) == len(set(keys))
    for N in CENSUS_LEVELS:
        expected = {s.label for s in subgroups_containing_minus1(N)
                    if not s.is_minimal and not s.is_full}
        assert {lab for (n, lab) in keys if n == N} == expected


def test_census_low_genus_rows(census_by_key):
    for key in RATIONAL_CURVES:
        assert census_by_key[key].status == "rational"
        assert census_by_key[key].genus == 0
    for key in ELLIPTIC_CURVES:
        assert census_by_key[key].status == "elliptic"
        assert census_by_key[key].genus == 1


def test_census_small_cutoff():
    recs = Classifier(FactBook(enabled=True)).census(20)
    assert len(recs) == 8
    assert all(r.genus <= 1 for r in recs)
    assert {(r.N, r.delta_label) for r in recs} == {
        (13, "D1"), (13, "D2"), (15, "D1"), (16, "D1"),
        (17, "D1"), (17, "D2"), (19, "D1"), (20, "D1"),
    }


def test_census_cutoff_validation():
    with pytest.raises(InputError):
        Classifier(FactBook(enabled=True)).census(257)


def test_scope_enumerates_subgroups_only_at_levels_in_scope():
    clf = Classifier(FactBook(enabled=True))
    subgroups_containing_minus1.cache_clear()
    clf.scope_levels(131)
    cached = set()
    for N in range(13, 132):
        hits = subgroups_containing_minus1.cache_info().hits
        subgroups_containing_minus1(N)
        if subgroups_containing_minus1.cache_info().hits > hits:
            cached.add(N)
    typed = {N for N in range(13, 132) if clf._x0_type(N) is not None}
    assert cached == typed


# --------------------------------------------------------------------------
# the 25 positive rows


def test_bielliptic_set_is_exact(census_on):
    found = {(r.N, r.delta_label) for r in census_on if r.is_bielliptic}
    assert found == set(BIELLIPTIC_TABLE)
    assert len(found) == 25


def test_exactly_one_hyperelliptic(census_on):
    hyper = [r for r in census_on if r.status == "hyperelliptic"]
    assert [(r.N, r.delta_label) for r in hyper] == [(21, "D1")]
    rec = hyper[0]
    assert rec.is_bielliptic
    assert [w.name for w in rec.hyperelliptic_witnesses] == ["W^_3"]
    assert rec.hyperelliptic_witnesses[0].fixed_total == 8


def test_bielliptic_rows_genus_and_witnesses(census_by_key):
    for key, (g, published) in BIELLIPTIC_TABLE.items():
        rec = census_by_key[key]
        assert rec.genus == g, key
        names = {w.name for w in rec.witnesses}
        assert published <= names, (key, published - names)
        extras = names - published
        assert extras <= ALLOWED_EXTRA_WITNESSES.get(key, set()), (key, extras)


def test_bielliptic_witness_counts_are_involution_counts(census_by_key):
    # a bielliptic involution on a genus-g curve has 2g - 2 + 4·(1 - g')
    # fixed points with g' = 1, so exactly 2g - 2
    for key, (g, _) in BIELLIPTIC_TABLE.items():
        rec = census_by_key[key]
        for w in rec.witnesses:
            assert w.fixed_total == 2 * g - 2, (key, w.name, w.fixed_total)


def test_accola_route_for_the_witnessless_curve(census_by_key):
    rec = census_by_key[(37, "D3")]
    assert rec.status == "bielliptic"
    assert rec.witnesses == ()
    assert [e.rule for e in rec.evidence] == ["accola-genus4"]


def test_extra_witness_matrices_come_from_the_fact_file(tmp_path):
    text = default_facts_path().read_text(encoding="utf-8")
    kept = [line for line in text.splitlines()
            if not line.startswith("x0.extra-involutions.40 ")]
    assert len(kept) == len(text.splitlines()) - 1
    path = tmp_path / "facts.txt"
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    rec = Classifier(FactBook(enabled=True, path=path)).classify(40, "D6")
    assert rec.status == "bielliptic"
    names = {w.name for w in rec.witnesses}
    assert names == {"[[1,0],[20,1]]"}


def test_disabled_book_reads_past_the_switch():
    book = FactBook(enabled=False)
    assert book.get("x0.bielliptic") is None
    fact = book.read_past_switch("x0.bielliptic")
    assert fact.key == "x0.bielliptic"
    assert {22, 60, 131} <= set(fact.as_levels())
    assert book.read_past_switch("x0.extra-involutions.41") is None
    with pytest.raises(KeyError):
        book.read_past_switch("x0.bielliptc")


def test_curated_x0_lists_agree_with_the_witness_search():
    # Every level of the curated Bars list gets a bielliptic witness from
    # the classifier's own search on X_0(N), and every level of Ogg's list a
    # hyperelliptic one, except 37: its hyperelliptic involution lies
    # outside the normaliser (Ogg 1974), so only W^_37 is found there.
    clf = Classifier(FactBook())
    bielliptic = clf.facts.get("x0.bielliptic").as_levels()
    hyperelliptic = clf.facts.get("x0.hyperelliptic").as_levels()
    assert (len(bielliptic), len(hyperelliptic)) == (41, 19)
    found = {}
    for N in sorted(set(bielliptic) | set(hyperelliptic)):
        full = delta_by_label(N, "0")
        biell, hyper, _ = clf._witness_search(N, full, genus(N, full))
        found[N] = ([w.name for w in biell], [w.name for w in hyper])
    assert [N for N in bielliptic if not found[N][0]] == []
    assert [N for N in hyperelliptic if not found[N][1]] == [37]
    assert found[37] == (["W^_37"], [])


# --------------------------------------------------------------------------
# the negative control at 64


def test_level_64_candidate_rejection():
    delta = delta_by_label(64, "D3")
    base = fixed_points_X0(64, 64)
    hat = hat_W(64, delta)
    assert hat is not None
    rejected = []
    for cand, name in ((hat, "W^_64"),
                       (diamond_matrix(3, 64) * hat, "[3]W^_64")):
        total = (len(lift_fixed_points(64, delta, cand, base).witnesses)
                 + cuspidal_fixed_count(64, delta, cand)[0])
        rejected.append((name, total))
        # 4 fixed points on a genus-5 curve quotient to genus 2, not 1
        assert involution_quotient_genus(5, total) == 2
    assert rejected == [("W^_64", 4), ("[3]W^_64", 4)]
    # the parabolic-shaped explicit involution is the one that works
    good = Mat2(1, 0, 32, 1)
    count = (coset_fixed_points(64, delta, good)[0]
             + cuspidal_fixed_count(64, delta, good)[0])
    assert count == 8
    assert involution_quotient_genus(5, count) == 1


# --------------------------------------------------------------------------
# eliminations


def test_not_bielliptic_rows_genus_and_rules(census_by_key):
    assert len(NOT_BIELLIPTIC_TABLE) == 144
    for key, encoded in NOT_BIELLIPTIC_TABLE.items():
        genus_str, letters = encoded.split(":")
        rec = census_by_key[key]
        assert rec.status == "not-bielliptic", key
        assert rec.genus == int(genus_str), key
        expected = {RULE_LETTERS[ch] for ch in letters}
        assert {e.rule for e in rec.evidence} == expected, key


def test_cover_tables_with_degrees(census_by_key):
    for table in (COVER_TABLE_BIELLIPTIC_TARGETS,
                  COVER_TABLE_NON_BIELLIPTIC_TARGETS):
        for (N, index), (target, degree) in table.items():
            rec = census_by_key[(N, _published_label(N, index))]
            assert rec.status == "not-bielliptic", (N, index)
            hits = [e for e in rec.evidence
                    if e.target == target and e.degree == degree]
            assert hits, (N, index, target, degree,
                          [(e.rule, e.target, e.degree) for e in rec.evidence])


def test_field_elimination_levels(census_on):
    for N in FIELD_ELIMINATION_LEVELS:
        recs = [r for r in census_on if r.N == N]
        assert recs
        for rec in recs:
            rules = {e.rule for e in rec.evidence}
            assert rules & {"field-of-definition", "cusp-rationality"}, (
                N, rec.delta_label, rules)


def test_witnesses_and_eliminations_mutually_exclusive(census_on):
    negative = set(RULE_LETTERS.values())
    for rec in census_on:
        rules = {e.rule for e in rec.evidence}
        if rec.witnesses:
            assert not (rules & negative), (rec.N, rec.delta_label)
        if rules & negative:
            assert rec.status == "not-bielliptic"
            assert not rec.witnesses
            assert rec.is_bielliptic is False


# --------------------------------------------------------------------------
# the X_0(N) candidate eliminations
#
# Their lift step reads what the witness search established: a candidate
# that normalizes Gamma_Delta(N) is an operator the search tried, and none of
# its lifts has 2g-2 fixed points, or the curve would be bielliptic.

X0_ELIMINATION_RULES = {"field-of-definition", "cusp-rationality", "count-bound",
                        "lift-conflict"}
NO_BIELLIPTIC_LIFT = "no lift is an involution with 2g-2 fixed points"


def _check_lift_argument(clf, N, delta, g):
    """Check the lift step's premises for every X_0(N) candidate that
    normalizes Gamma_Delta(N): the witness search tried it (Atkin-Lehner
    operators matched by determinant, extras by matrix), and a recount finds
    no lift with 2g-2 fixed points.  Returns how many candidates it checked."""
    tried = {(kind, w.det if kind == "atkin-lehner" else w)
             for kind, w, _, _ in clf._witness_candidates(N, delta)}
    checked = 0
    for name, w, kind, _ in clf._x0_candidates(N)[0]:
        if not normalizes(w, delta):
            continue
        assert (kind, w.det if kind == "atkin-lehner" else w) in tried, (N, delta.label, name)
        totals = [e + c for _, _, e, c in _involution_counts(N, delta, w, g)]
        assert 2 * g - 2 not in totals, (N, delta.label, name)
        checked += 1
    return checked


def _lift_steps(rec):
    """``(N, label, candidate)`` for every candidate that the record's X_0(N)
    elimination excluded by the witness search's count of its lifts."""
    out = set()
    for ev in rec.evidence:
        if ev.rule in X0_ELIMINATION_RULES:
            for part in ev.detail.split("; ")[1:]:
                name, reason = part.split(": ", 1)
                if reason == NO_BIELLIPTIC_LIFT:
                    out.add((rec.N, rec.delta_label, name))
    return out


def test_lift_step_rests_on_the_witness_search(classifier_on, census_on):
    checked, steps = 0, set()
    for rec in census_on:
        if {e.rule for e in rec.evidence} & X0_ELIMINATION_RULES:
            delta = delta_by_label(rec.N, rec.delta_label)
            checked += _check_lift_argument(classifier_on, rec.N, delta, rec.genus)
            steps |= _lift_steps(rec)
    assert checked == 183
    assert steps == {(34, "D1", "W_2"), (36, "D1", "W_4"),
                     (48, "D5", "[[-6,1],[-48,6]]")}


# [[1,0],[N/2,1]] is an involution of X_0(N) with 2g0-2 fixed points at these
# levels, but neither an Atkin-Lehner involution nor a listed extra one, so the
# X_0(N) eliminations do not name it.  The verdicts above it still hold: it
# normalizes only the curves listed here, and none of its lifts there has
# 2g-2 fixed points.
HALF_LEVEL_NORMALIZED = {40: {"D3"}, 48: {"D3", "D4", "D5"}, 64: {"D1", "D2"},
                         72: {"D3", "D5", "D8"}}


@pytest.mark.parametrize("N", sorted(HALF_LEVEL_NORMALIZED))
def test_half_level_involution_of_x0_lifts_to_no_bielliptic_one(census_on, N):
    w = Mat2(1, 0, N // 2, 1)
    full = delta_by_label(N, "0")
    g0 = genus(N, full)
    assert [e + c for _, _, e, c in _involution_counts(N, full, w, g0)] == [2 * g0 - 2]
    normalized = set()
    for rec in census_on:
        if rec.N != N or rec.status == "bielliptic" or rec.genus < 6:
            continue
        delta = delta_by_label(N, rec.delta_label)
        if normalizes(w, delta):
            normalized.add(rec.delta_label)
            totals = [e + c for _, _, e, c in _involution_counts(N, delta, w, rec.genus)]
            assert 2 * rec.genus - 2 not in totals, rec.name
    assert normalized == HALF_LEVEL_NORMALIZED[N]


def test_generic_atkin_lehner_normalizes_exactly_when_w_d_descends():
    triples = 0
    for N in range(3, 61):
        for delta in subgroups_containing_minus1(N):
            for d in hall_divisors(N)[1:]:
                got = normalizes(generic_atkin_lehner(N, d), delta)
                assert got == descends(d, delta), (N, delta.label, d)
                triples += 1
    assert triples == 579


def test_cusp_obstruction_matches_scalar_oracle(classifier_on, census_on):
    pairs, obstructed = 0, 0
    for rec in census_on:
        delta = delta_by_label(rec.N, rec.delta_label)
        for _, w, _, _ in classifier_on._x0_candidates(rec.N)[0]:
            got = classifier_on._cusp_obstruction(rec.N, delta, w)
            expected = scalar_oracles.cusp_obstruction(rec.N, delta, w)
            assert got == expected, (rec.N, rec.delta_label, w)
            pairs += 1
            obstructed += got is not None
    assert (pairs, obstructed) == (288, 265)


@pytest.mark.slow
@pytest.mark.parametrize("N", range(132, 401))
def test_no_curve_beyond_the_census_is_bielliptic(classifier_on, N):
    # The census keeps only levels where X_0(N) is subhyperelliptic or
    # bielliptic; beyond 131 every intermediate curve must come out
    # not-bielliptic, without a witness, with the lift step's premises intact.
    for rec in classifier_on.classify_level(N):
        assert not rec.witnesses and not rec.hyperelliptic_witnesses, rec.name
        assert rec.status == "not-bielliptic", (rec.name, rec.status)
        if {e.rule for e in rec.evidence} & X0_ELIMINATION_RULES:
            _check_lift_argument(classifier_on, N, delta_by_label(N, rec.delta_label), rec.genus)


# --------------------------------------------------------------------------
# degradation without curated facts


def test_positive_results_survive_without_facts(census_on, census_off):
    on = {(r.N, r.delta_label): r for r in census_on}
    off = {(r.N, r.delta_label): r for r in census_off}
    assert set(on) == set(off)
    positive = {"rational", "elliptic", "hyperelliptic", "bielliptic"}
    for key, rec in on.items():
        if rec.status in positive:
            assert off[key].status == rec.status, key
            assert {w.name for w in off[key].witnesses} == {
                w.name for w in rec.witnesses}


def test_downgrades_without_facts_all_cite_facts(census_on, census_off):
    on = {(r.N, r.delta_label): r for r in census_on}
    off = {(r.N, r.delta_label): r for r in census_off}
    changed = {k for k in on if on[k].status != off[k].status}
    assert len(changed) == 63
    for key in changed:
        assert on[key].status == "not-bielliptic"
        assert off[key].status == "undecided"
        assert on[key].facts_used, key
    counts = Counter(r.status for r in census_off)
    assert counts == {
        "rational": 4,
        "elliptic": 9,
        "hyperelliptic": 1,
        "bielliptic": 24,
        "not-bielliptic": 81,
        "undecided": 63,
    }


def test_curated_verdict_rows_downgrade(census_off):
    off = {(r.N, r.delta_label): r for r in census_off}
    assert off[(37, "D4")].status == "undecided"
    assert off[(25, "D1")].status == "undecided"
    assert off[(36, "D1")].status == "undecided"


# --------------------------------------------------------------------------
# quadratic points


def test_quadratic_points_classification(census_on):
    for rec in census_on:
        if rec.status in ("rational", "elliptic", "hyperelliptic"):
            assert rec.quadratic_points == "infinite", (rec.N, rec.delta_label)
        else:
            assert rec.quadratic_points != "infinite", (rec.N, rec.delta_label)


def test_level_37_quadratic_points_finite(census_by_key):
    rec = census_by_key[(37, "D3")]
    assert rec.quadratic_points == "finite"
    assert "n37.quadratic-finite" in rec.facts_used


# --------------------------------------------------------------------------
# module conveniences


def test_classify_curve_matches_census(census_by_key):
    rec = classify_curve(34, "D2")
    frozen = census_by_key[(34, "D2")]
    assert rec.status == frozen.status
    assert rec.genus == frozen.genus
    assert {w.name for w in rec.witnesses} == {w.name for w in frozen.witnesses}


def test_classifier_memoizes():
    c = Classifier(FactBook(enabled=True))
    assert c.classify(34, "D2") is c.classify(34, "D2")


def test_a_curve_classifies_only_the_cover_targets_whose_verdict_it_reads():
    # X_D1(330) has genus 1281 and 35 covers.  The Castelnuovo-Severi bound
    # reads only a target's genus; only the Galois-cover rules read its
    # verdict, so only the five Galois targets are classified.
    c = Classifier(FactBook(enabled=True))
    covers = c._covers(330, delta_by_label(330, "D1"))
    galois = {(M, label) for M, label, _, is_galois in covers if is_galois}
    assert galois == {(330, "D6"), (330, "D8"), (330, "D11"), (330, "D14"), (330, "0")}
    assert {(165, "D3"), (10, "0")} <= {(M, label) for M, label, _, _ in covers} - galois
    c.classify(330, "D1")
    assert set(c._memo) == galois | {(330, "D1")}


@pytest.mark.parametrize("N,builds", [(330, 6), (256, 20)])
def test_a_curve_builds_coset_actions_only_for_the_curves_it_searches(N, builds):
    # cover degrees and genera are counted, so a coset action is built only
    # for a curve the witness search visits, never for a cover target alone
    _clear_level_caches()
    c = Classifier(FactBook(enabled=True))
    c.classify(N, "D1")
    assert coset_action.cache_info().misses == builds <= len(c._memo)
    _clear_level_caches()


def test_census_frees_each_levels_coset_tables(census_on):
    c = Classifier(FactBook(enabled=True))
    records = c.census(40)
    for cache in (coset_action, cusp_table, transversal):
        assert cache.cache_info().currsize == 0, cache
    assert records == tuple(r for r in census_on if r.N <= 40)
    # a level classified on its own, in any order, gives the census records
    fresh = Classifier(FactBook(enabled=True))
    for N in reversed(c.scope_levels(40)):
        assert fresh.classify_level(N) == tuple(r for r in records if r.N == N)


def test_classify_handles_boundary_subgroups_outside_census():
    # the classifier itself accepts the minimal and full subgroups; only
    # the census restricts to the strictly intermediate ones
    c = Classifier(FactBook(enabled=True))
    rec = c.classify(21, "1")
    assert rec.delta_label == "1"
    assert rec.genus == 5
    rec0 = c.classify(21, "0")
    assert rec0.genus == 1


def test_classify_rejects_bad_input():
    c = Classifier(FactBook(enabled=True))
    with pytest.raises(InputError):
        c.classify(21, "D9")
    with pytest.raises(InputError):
        c.classify(2, "D1")
