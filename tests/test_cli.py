"""The command-line interface: formats, envelopes, exit codes, overrides."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import modcurve
import modcurve.cli as cli
from modcurve import __version__
from modcurve.cli import CSV_COLUMNS, build_parser, main
from modcurve.congruence import LEVEL_LIMIT
from modcurve.zmodn import SUBGROUP_LEVEL_LIMIT


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


def test_full_group_label_at_levels_where_the_units_are_pm1(capsys):
    # at N = 4 the only subgroup is {+-1} = (Z/4Z)*, labeled "1"; "0" names
    # it too, so X_0(4) can be asked for by its usual label
    code, out, _ = run(capsys, "curve", "4", "--delta", "0", "--format", "json")
    assert code == 0
    rec = json.loads(out)["results"]
    assert (rec["genus"], rec["delta_label"]) == (0, "1")
    code, out, _ = run(capsys, "fixed-points", "4", "4", "--delta", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["lift"]["base_count"] == 1


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


@pytest.mark.parametrize("N,d,sel", [("14", "2", "0"), ("21", "7", "D1")])
def test_fixed_points_lift_without_base_points_or_hat_lift(capsys, N, d, sel):
    # W_d has no fixed points on X_0(N) and no hat lift of the standard
    # shape, so the lift starts from the generic Atkin-Lehner matrix W_d.
    code, out, err = run(capsys, "fixed-points", N, d, "--delta", sel)
    assert code == 0, err
    assert f"via W_{d}: 0 elliptic + " in out
    code, out, err = run(capsys, "fixed-points", N, d, "--delta", sel,
                         "--format", "json")
    assert code == 0, err
    lift = json.loads(out)["results"]["lift"]
    assert lift["candidate"] == f"W_{d}"
    assert lift["base_count"] == 0
    assert lift["fixed_elliptic"] == 0
    assert lift["fibres"] == []


def test_fixed_points_lift_that_fails_to_normalize_is_an_invariant_breach(capsys, monkeypatch):
    # The matrix above a descending W_d always normalizes the subgroup; if
    # it did not, the program would be at fault, not the input.
    monkeypatch.setattr(cli, "normalizes", lambda matrix, delta: False)
    code, out, err = run(capsys, "fixed-points", "34", "2", "--delta", "D2")
    assert code == 3
    assert out == ""
    assert "does not normalize" in err


# --------------------------------------------------------------------------
# census


@pytest.mark.parametrize("argv,digest", [
    (("census", "--format", "csv"), "5e862ba68e11b3a456b2aa3e8055c042"),
    (("census", "--facts", "off", "--format", "json"), "0a23f934f90e5a524052d3260118b127"),
    # the only census output that carries the elimination details
    (("census", "--format", "json"), "568b3ebfd00c6bdfc151b6555e0c6673"),
])
def test_census_outputs_match_their_golden_digests(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("curve", "330", "--delta", "D1", "--facts", "on", "--format", "json"),
     "4960061efdd2b4cee7d9167e4990d53c"),
    (("curve", "330", "--delta", "D1", "--facts", "off", "--format", "json"),
     "40c4bac595c4cd85ee8498e2eca12c3e"),
    (("curve", "256", "--delta", "D1", "--facts", "on", "--format", "json"),
     "04540f93ca44d1c9331ab53afc0bd63c"),
    (("curve", "256", "--delta", "D1", "--facts", "off", "--format", "json"),
     "ef0685a8a5a37aaf4ccb312693a5f572"),
])
def test_large_curve_outputs_match_their_golden_digests(capsys, argv, digest):
    # single-curve queries classify only the cover targets whose verdicts
    # their rules read; the evidence must not depend on that
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["curve", "34", "--delta", "D2"],
    ["census", "--max-n", "40"],
])
def test_a_cold_query_does_not_import_numpy_ma(argv):
    # a plain np.unique imports numpy.ma on its first call (numpy 2.x),
    # 10-20 ms that every cold query would pay inside its own run
    src = str(Path(modcurve.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys\n"
        "from modcurve.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr


def test_a_cold_query_starts_no_blas_thread():
    # an OpenBLAS worker thread busy-waits for tens of ms after it starts,
    # CPU time that a short query would be charged for, varying run to run
    src = str(Path(modcurve.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    code = (
        "import contextlib, io, os\n"
        "from modcurve.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['curve', '34', '--delta', 'D2'])\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1\n"
        "print(code, os.environ.get('OPENBLAS_NUM_THREADS'), tasks)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["0", "1", "1"], done.stderr
    # a value the caller set is kept
    done = subprocess.run([sys.executable, "-c", "import os, modcurve\n"
                           "print(os.environ['OPENBLAS_NUM_THREADS'])"],
                          env={**env, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"},
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["2"], done.stderr


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


@pytest.mark.parametrize("argv", [
    ("fixed-points", "-5", "5"),
    ("fixed-points", "-15", "3"),
    ("fixed-points", "0", "1"),
    ("fixed-points", "100003", "100003"),
    ("fixed-points", "1000003", "1000003", "--delta", "1"),
    ("curve", "1000003", "--delta", "1"),
    ("curve", "-5", "--delta", "1"),
])
def test_exit_code_level_out_of_range_before_any_search(capsys, argv):
    # a level below 1 or above LEVEL_LIMIT is refused before the fixed-point
    # search or the subgroup enumeration starts
    tracemalloc.start()
    start = time.monotonic()
    try:
        code, _, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "level" in err
    assert time.monotonic() - start < 1.0
    assert peak < 1 << 20


@pytest.mark.parametrize("N", [SUBGROUP_LEVEL_LIMIT + 1, 10000019])
def test_subgroups_refuses_levels_past_the_bound(capsys, N):
    # the refusal comes before the unit group or any subgroup is built
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "subgroups", str(N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "level" in err
    assert peak < 1 << 20


def _run_cli(*argv):
    src = str(Path(modcurve.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "modcurve", *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ("curve", "21", "--delta", "5,x"),
    ("fixed-points", "21", "3", "--delta", "2,x"),
    ("curve", "21", "--delta", ","),
])
def test_exit_code_malformed_element_list(argv):
    done = _run_cli(*argv)
    assert done.returncode == 2
    assert "error:" in done.stderr
    assert "Traceback" not in done.stderr


def test_exit_code_unwritable_out_path(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    done = _run_cli("fixed-points", "21", "3", "--out", str(target))
    assert done.returncode == 2
    assert "error: cannot write" in done.stderr
    assert "Traceback" not in done.stderr
    assert not target.exists()


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
