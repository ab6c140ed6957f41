"""The command-line interface: formats, envelopes, exit codes, overrides."""

from __future__ import annotations

import csv
import io
import json

import pytest

from modcurve import __version__
from modcurve.cli import CSV_COLUMNS, build_parser, main
from modcurve.congruence import LEVEL_LIMIT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# subgroups


def test_subgroups_text(capsys):
    code, out, err = run(capsys, "subgroups", "21")
    assert code == 0
    assert "Δ₁" in out
    assert "±{1,8}" in out
    assert "±{1,4,5}" in out
    assert "2 intermediate subgroup(s)" in out


def test_subgroups_json_envelope(capsys):
    code, out, _ = run(capsys, "subgroups", "21", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "version", "results", "warnings"}
    assert doc["command"] == "subgroups 21 --format json"
    assert doc["version"] == __version__
    subs = doc["results"]["subgroups"]
    assert doc["results"]["N"] == 21
    labels = [r["label"] for r in subs]
    assert labels == ["1", "D1", "D2", "0"]
    d1 = subs[1]
    assert d1["order"] == 4
    assert d1["elements"] == [1, 8, 13, 20]


def test_json_output_deterministic(capsys):
    _, first, _ = run(capsys, "census", "--max-n", "30", "--format", "json")
    _, second, _ = run(capsys, "census", "--max-n", "30", "--format", "json")
    assert first == second


# --------------------------------------------------------------------------
# curve


def test_curve_text_bielliptic(capsys):
    code, out, _ = run(capsys, "curve", "34", "--delta", "D2")
    assert code == 0
    assert "X_{Δ₂}(34)" in out
    assert "±{1,9,13,15}" in out
    assert "genus:  5" in out
    assert "status: bielliptic" in out
    assert "W^_2 = [[-10,-3],[34,10]]" in out


def test_curve_json_record(capsys):
    code, out, _ = run(capsys, "curve", "34", "--delta", "D2",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)["results"]
    assert rec["status"] == "bielliptic"
    assert rec["genus"] == 5
    assert rec["is_bielliptic"] is True
    names = [w["name"] for w in rec["witnesses"]]
    assert "W^_2" in names
    w = rec["witnesses"][names.index("W^_2")]
    assert w["matrix"] == [[-10, -3], [34, 10]]
    assert w["fixed_elliptic"] + w["fixed_cuspidal"] == 8


def test_curve_accepts_element_list(capsys):
    code, out, _ = run(capsys, "curve", "34", "--delta", "1,9,13,15,19,21,25,33",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["delta_label"] == "D2"


def test_curve_delta_spellings(capsys):
    for spelling in ("D2", "d2", "Δ2"):
        code, out, _ = run(capsys, "curve", "34", "--delta", spelling,
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["delta_label"] == "D2"


def test_curve_not_bielliptic_shows_evidence(capsys):
    code, out, _ = run(capsys, "curve", "56", "--delta", "D8",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)["results"]
    assert rec["status"] == "not-bielliptic"
    rules = {e["rule"] for e in rec["evidence"]}
    assert rules == {"count-bound", "unramified-cover"}


# --------------------------------------------------------------------------
# fixed-points


def test_fixed_points_base_curve(capsys):
    code, out, _ = run(capsys, "fixed-points", "34", "2", "--format", "json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["count"] == 4
    forms = sorted(tuple(p["form"]) for p in res["points"])
    assert forms == [(34, -26, 5), (34, -20, 3), (34, 20, 3), (34, 26, 5)]


def test_fixed_points_with_lift(capsys):
    code, out, _ = run(capsys, "fixed-points", "34", "2", "--delta", "D2",
                       "--format", "json")
    assert code == 0
    res = json.loads(out)["results"]
    lift = res["lift"]
    assert lift["fixed_elliptic"] == 8
    assert lift["fixed_cuspidal"] == 0
    assert sorted(set(lift["a_classes"])) == [-1, 1, 9, 15]
    assert len(lift["fibres"]) == 8


def test_fixed_points_text(capsys):
    code, out, _ = run(capsys, "fixed-points", "34", "2", "--delta", "D2")
    assert code == 0
    assert "4" in out
    assert "8" in out


# --------------------------------------------------------------------------
# census


def test_census_csv(capsys):
    code, out, _ = run(capsys, "census", "--max-n", "20", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + 8
    first = dict(zip(rows[0], rows[1]))
    assert first["N"] == "13"
    assert first["status"] == "rational"
    assert first["quadratic_points"] == "infinite"


def test_census_default_text(capsys):
    code, out, _ = run(capsys, "census", "--max-n", "40")
    assert code == 0
    assert "bielliptic" in out
    assert "X_Δ₃(35)" in out or "35" in out


def test_census_facts_off_warns(capsys):
    code, out, _ = run(capsys, "census", "--max-n", "40", "--facts", "off",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["warnings"]
    assert doc["results"]["facts"] == "off"
    statuses = {r["status"] for r in doc["results"]["records"]}
    assert "undecided" in statuses


# --------------------------------------------------------------------------
# exit codes and input validation


def test_exit_code_bad_label(capsys):
    code, _, err = run(capsys, "curve", "34", "--delta", "D9")
    assert code == 2
    assert err


def test_exit_code_small_level(capsys):
    code, _, err = run(capsys, "subgroups", "2")
    assert code == 2
    assert err


def test_exit_code_level_past_the_bound(capsys):
    N = LEVEL_LIMIT + 1
    for argv in (("curve", str(N), "--delta", f"1,{N - 1}"),
                 ("fixed-points", str(N), str(N), "--delta", f"1,{N - 1}")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "too large" in err


def test_exit_code_non_hall_divisor(capsys):
    code, _, err = run(capsys, "fixed-points", "12", "2")
    assert code == 2
    assert err


def test_exit_code_census_cap(capsys):
    code, _, err = run(capsys, "census", "--max-n", "300")
    assert code == 2
    assert err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


# --------------------------------------------------------------------------
# facts switches


def test_facts_flag_off(capsys):
    code, out, _ = run(capsys, "curve", "37", "--delta", "D4",
                       "--facts", "off", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["status"] == "undecided"


def test_facts_on_by_default(capsys):
    code, out, _ = run(capsys, "curve", "37", "--delta", "D4",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["status"] == "not-bielliptic"


# --------------------------------------------------------------------------
# file output


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "census.json"
    code, out, _ = run(capsys, "census", "--max-n", "20",
                       "--format", "json", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["results"]["count"] == 8
    assert len(doc["results"]["records"]) == 8


def test_parser_builds_help():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("subgroups", "curve", "fixed-points", "census"):
        assert sub in text
