"""Tests of the benchmark itself, on tiny operations.

    python3 -m pytest perfbench -q

They run ``run.py --tiny`` from the repository root: a smoke run of each
workload, a copy of the benchmark with a corrupted reference, two traced
runs whose counts must agree, and a run outside a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, PER_LAYER_UNITS, TINY  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, bench_dir: Path = HERE) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--seed", "1", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict:
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke(workload):
    rc, lines = bench("--workload", workload, "--tiny", "--trace", "0")
    out = result(lines)
    assert rc == 0
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in out["metrics"].values())
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"python", "numpy", "nproc", "numba_imports", "kernel_backend"} <= set(env)


@pytest.mark.parametrize("workload", ["census", "curve-large"])
def test_corrupted_reference_fails(tmp_path, workload):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    ref = copy / "refs" / TINY[workload][0].ref
    lines = ref.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = "x" + lines[1]
    ref.write_text("".join(lines), encoding="utf-8")
    rc, out_lines = bench("--workload", workload, "--tiny", "--trace", "0", bench_dir=copy)
    out = result(out_lines)
    assert rc != 0
    assert not out["correct"]
    assert 0 < out["failed"] <= out["attempted"]


def test_traced_counts_repeat():
    runs = []
    for _ in range(2):
        rc, lines = bench("--workload", "census", "--tiny", "--trace", "1")
        assert rc == 0
        runs.append(result(lines)["metrics"])
    assert {k: v["unit"] for k, v in runs[0].items()} == PER_LAYER_UNITS
    counts = [k for k, unit in PER_LAYER_UNITS.items() if unit == "count"]
    assert [runs[0][k]["value"] for k in counts] == [runs[1][k]["value"] for k in counts]
    assert runs[0]["classify.curves.calls"]["value"] > 0
    assert runs[0]["matrices.mat2_created"]["value"] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    rc, lines = bench("--workload", "census", "--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(TINY)
