"""End-to-end and per-layer benchmark of the modcurve command line.

    python3 perfbench/run.py --workload census|curve-large|lattice \\
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; the package is imported from
``src``.  Every operation runs in a fresh interpreter (``child.py``), one
at a time, so the package's lru caches start empty, as they do for a
command-line user.  ``MODCURVE_*`` variables are removed from the
children's environment, so ``--facts`` on the command line is what runs.

A repetition runs the workload's operations once.  Repetitions are made
while the next one is expected to end within ``--seconds`` (at least
one).  Each output is compared with the reference recorded in ``refs/``;
a mismatch or an error counts as a failed operation and makes the exit
code 1.

``--trace 0`` reports the end-to-end metrics.  Wall and CPU time are
reported in reference seconds: each child also times a fixed computation
(``child.probe``) around and during its call, and times are rescaled to a
host on which that computation takes ``REF_PROBE_S``.  Shared hosts change
speed by up to 2x within seconds, which plain seconds cannot gate.
``--trace 1`` runs one untraced repetition, then traced ones, and reports
the per-layer metrics; the trace's overhead is in reference seconds too.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--tiny`` swaps
each workload for a small operation of the same kind, for tests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFS = HERE / "refs"

#: Fresh processes that only set up, made before and again after the
#: repetitions so that set-up is sampled across the run; the first of all
#: is a discarded warm-up.
SETUP_PROBES = 5
#: Longest a single operation may take before it counts as failed.
OP_TIMEOUT_S = 120

#: Reference seconds are seconds on a host where ``child.probe`` takes
#: this long.
REF_PROBE_S = 0.003

END_TO_END_UNITS = {"wall_ref": "ref_s", "cpu_ref": "ref_s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "zmodn.self_s": "s",
    "zmodn.subgroups.calls": "count",
    "zmodn.subgroups.misses": "count",
    "zmodn.delta_from_elements.calls": "count",
    "kernels.self_s": "s",
    "kernels.cells": "count",
    "congruence.self_s": "s",
    "congruence.cusp_table.self_s": "s",
    "congruence.coset_action.misses": "count",
    "congruence.cusp_table.misses": "count",
    "congruence.cosets": "count",
    "matrices.mat2_created": "count",
    "qforms.self_s": "s",
    "qforms.fixed_points_X0.misses": "count",
    "qforms.reduced_classes.misses": "count",
    "atkinlehner.self_s": "s",
    "atkinlehner.normalizes.calls": "count",
    "atkinlehner.automorphism_order.calls": "count",
    "classify.self_s": "s",
    "classify.lift.calls": "count",
    "classify.lift.self_s": "s",
    "classify.coset.calls": "count",
    "classify.coset.self_s": "s",
    "classify.cuspidal.self_s": "s",
    "classify.curves.calls": "count",
    "classify.memo_hit_ratio": "ratio",
    "classify.witness_yield": "ratio",
    "classify.curve_p50_ms": "ms",
    "classify.curve_p90_ms": "ms",
    "facts.load_s": "s",
    "facts.lookups": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "ref_s",
}

#: The paper's census contract, checked on the output of ``census 131``.
CENSUS_MD5 = "5e862ba68e11b3a456b2aa3e8055c042"
CENSUS_ROWS = 182
CENSUS_BIELLIPTIC = 25
CENSUS_HYPERELLIPTIC = [("21", "D1")]


@dataclass(frozen=True)
class Op:
    """One command line and the file holding its reference output."""

    argv: tuple[str, ...]
    ref: str

    @property
    def is_census(self) -> bool:
        return self.argv[0] == "census"


def census_op(max_n: int) -> Op:
    argv = ("census", "--max-n", str(max_n), "--facts", "on", "--format", "csv")
    return Op(argv, f"census-{max_n}.csv")


def curve_op(N: int, label: str) -> Op:
    argv = ("curve", str(N), "--delta", label, "--facts", "on", "--format", "json")
    return Op(argv, f"curve-{N}-{label}.json")


def lattice_op(N: int) -> Op:
    return Op(("subgroups", str(N), "--format", "json"), f"subgroups-{N}.json")


# curve-large: a curve where only the Fricke involution descends (route
# B, the coset search, and the cusp tables lead), and a genus-1281 curve
# with 15 descending Hall divisors (route A, the lift, at its largest
# share).  Its inputs are fixed: no other query at these levels costs
# within a few percent of these, and a pool of unequal members makes the
# seed, not the program, set the spread of the figures.
CURVE_OPS = (curve_op(256, "D1"), curve_op(330, "D1"))
# lattice pools: the seed draws one level from each.  Levels rich in
# subgroups (108 each), and levels with a large cyclic unit group
# (phi = 500) but few subgroups (8 each).  The levels of one pool have
# isomorphic unit groups and cost about the same, so the seed moves the
# inputs but not the size of a repetition.
LATTICE_POOLS = (
    (624, 720),
    (625, 1250),
)

TINY = {
    "census": [census_op(40)],
    "curve-large": [curve_op(34, "D2")],
    "lattice": [lattice_op(60)],
}


def workload_ops(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operations of one repetition; the same seed gives the same list."""
    if tiny:
        return TINY[name]
    rng = random.Random(seed)
    if name == "census":
        return [census_op(131)]
    if name == "curve-large":
        return list(CURVE_OPS)
    if name == "lattice":
        return [lattice_op(rng.choice(pool)) for pool in LATTICE_POOLS]
    raise ValueError(f"unknown workload {name!r}")


def all_ops() -> list[Op]:
    """Every operation any seed can draw, plus the tiny ones."""
    ops = [census_op(131)]
    ops += CURVE_OPS
    ops += [lattice_op(N) for pool in LATTICE_POOLS for N in pool]
    ops += [op for tiny in TINY.values() for op in tiny]
    return ops


# --------------------------------------------------------------------------
# output checks


def census_contract(text: str) -> list[str]:
    """Problems with a ``census 131`` CSV, measured against the paper."""
    problems = []
    if hashlib.md5(text.encode()).hexdigest() != CENSUS_MD5:
        problems.append("md5 differs")
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != CENSUS_ROWS:
        problems.append(f"{len(rows)} rows, expected {CENSUS_ROWS}")
    biell = sum(1 for r in rows if r.get("status") == "bielliptic" or r.get("witnesses"))
    if biell != CENSUS_BIELLIPTIC:
        problems.append(f"{biell} bielliptic rows, expected {CENSUS_BIELLIPTIC}")
    hyper = [(r.get("N"), r.get("delta_label")) for r in rows if r.get("status") == "hyperelliptic"]
    if hyper != CENSUS_HYPERELLIPTIC:
        problems.append(f"hyperelliptic rows {hyper}, expected {CENSUS_HYPERELLIPTIC}")
    return problems


def check(op: Op, rc: int | None, output: str) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one operation.

    A census counts one operation per reference row; any other command is
    one operation.
    """
    expected = (REFS / op.ref).read_text(encoding="utf-8")
    if not op.is_census:
        if rc != 0:
            return 1, 1, [f"exit code {rc}"]
        return 1, int(output != expected), [] if output == expected else ["output differs"]
    want = expected.splitlines()
    attempted = len(want) - 1
    if rc != 0:
        return attempted, attempted, [f"exit code {rc}"]
    got = output.splitlines()
    if got[:1] != want[:1]:
        return attempted, attempted, ["header differs"]
    failed = sum(1 for i in range(1, len(want)) if i >= len(got) or got[i] != want[i])
    failed += max(0, len(got) - len(want))
    problems = [f"{failed} rows differ"] if failed else []
    if op == census_op(131):
        contract = census_contract(output)
        problems += contract
        if contract and not failed:
            failed = 1
    return attempted, min(failed, attempted), problems


# --------------------------------------------------------------------------
# running children


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MODCURVE_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict[str, str]) -> tuple[int | None, dict | None, str]:
    """Run child.py; (exit code, its JSON record, stderr).  None on timeout."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, None, f"timed out after {OP_TIMEOUT_S} s"
    record = None
    if proc.returncode == 0 and proc.stdout.strip():
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, record, proc.stderr


def measure_setup(env: dict[str, str], probes: int) -> tuple[list[float], dict]:
    """Times, in reference seconds, of fresh processes that import modcurve
    and load facts; and the environment they report."""
    times, info = [], {}
    for _ in range(probes):
        start = time.perf_counter()
        rc, record, err = run_child(["--setup"], env)
        elapsed = time.perf_counter() - start
        if rc != 0 or record is None:
            raise RuntimeError(f"set-up failed: {err.strip()}")
        times.append((elapsed - 2 * record["probe_s"]) * REF_PROBE_S / record["probe_s"])
        info = record["env"]
    return times, info


@dataclass
class Rep:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    wall_ref: float = 0.0
    cpu_ref: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0


def log(line: str) -> None:
    print(line, flush=True)


def run_rep(ops: list[Op], trace: bool, env: dict[str, str]) -> tuple[Rep, list[dict]]:
    """Run each operation once in a fresh process and check its output."""
    rep, raws = Rep(), []
    for op in ops:
        rc, record, err = run_child(["--trace", str(int(trace)), "--", *op.argv], env)
        cli_rc = record["rc"] if record is not None else rc
        output = record["output"] if record is not None else ""
        attempted, failed, problems = check(op, cli_rc, output)
        rep.attempted += attempted
        rep.failed += failed
        if record is not None:
            rep.wall_s += record["wall_s"]
            rep.cpu_s += record["cpu_s"]
            speed = REF_PROBE_S / record["probe_s"]
            rep.wall_ref += record["wall_s"] * speed
            rep.cpu_ref += record["cpu_s"] * speed
            rep.peak_rss_mb = max(rep.peak_rss_mb, record["peak_rss_mb"])
            if record["trace"] is not None:
                raws.append(record["trace"])
        status = "ok" if not failed else "FAIL " + "; ".join(problems)
        timing = "-"
        if record is not None:
            timing = f"{record['wall_s']:.3f} s (reference {record['probe_s'] * 1e3:.2f} ms)"
        log(f"  {'traced ' if trace else ''}{' '.join(op.argv)}: {timing} {status}")
        if err.strip() and (failed or record is None):
            log("    " + err.strip().splitlines()[-1])
    return rep, raws


# --------------------------------------------------------------------------
# main


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("census", "curve-large", "lattice"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one small operation per workload (for tests)")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "modcurve" / "cli.py").is_file():
        print("error: run from the root of a modcurve checkout (src/modcurve not found)",
              file=sys.stderr)
        return 2
    ops = workload_ops(args.workload, args.seed, args.tiny)
    missing = [op.ref for op in ops if not (REFS / op.ref).is_file()]
    if missing:
        print(f"error: no reference output for {', '.join(missing)}", file=sys.stderr)
        return 2
    env = child_env(root)

    (_warm_up, *setup_times), info = measure_setup(env, SETUP_PROBES + 1)
    log("env " + json.dumps(info, sort_keys=True))
    log(f"workload {args.workload} seed {args.seed}: " + ", ".join(" ".join(op.argv) for op in ops))

    attempted = failed = 0
    plain: list[Rep] = []
    traced: list[tuple[Rep, list[dict]]] = []
    start = time.perf_counter()
    while True:
        trace = bool(args.trace) and bool(plain)
        rep_start = time.perf_counter()
        rep, raws = run_rep(ops, trace, env)
        attempted += rep.attempted
        failed += rep.failed
        if trace:
            traced.append((rep, raws))
        else:
            plain.append(rep)
        now = time.perf_counter()
        # Stop when another repetition like this one would overrun --seconds.
        if now - start + (now - rep_start) > args.seconds and (traced or not args.trace):
            break

    if args.trace:
        from spans import layer_metrics, merge

        per_rep = [layer_metrics(merge(raws)) for _, raws in traced]
        values = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        values["trace.overhead_s"] = (
            statistics.median(rep.wall_ref for rep, _ in traced) - plain[0].wall_ref
        )
        units = PER_LAYER_UNITS
    else:
        setup_times += measure_setup(env, SETUP_PROBES)[0]
        values = {
            "wall_ref": statistics.median(rep.wall_ref for rep in plain),
            "cpu_ref": statistics.median(rep.cpu_ref for rep in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": max(rep.peak_rss_mb for rep in plain),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    reps = len(plain) + len(traced)
    log(f"{reps} repetition(s), {attempted} operations, {failed} failed")
    for name, m in metrics.items():
        log(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        log(f"  {'wall_s (as measured)':<38} {statistics.median(r.wall_s for r in plain):>14.6g} s")
        log(f"  {'cpu_s (as measured)':<38} {statistics.median(r.cpu_s for r in plain):>14.6g} s")
    log(f"  {'fail_ratio':<38} {failed / attempted:>14.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
