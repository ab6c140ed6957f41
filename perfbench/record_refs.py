"""Record the reference output of every operation the benchmark can draw.

    python3 perfbench/record_refs.py

Run from the root of a checkout whose outputs are known to be right; the
files in ``perfbench/refs`` were recorded this way and are what
``run.py`` checks against.  The ``census 131`` output must meet the
paper's contract before it is written.
"""

from __future__ import annotations

import sys
from pathlib import Path

from run import REFS, all_ops, census_contract, child_env, run_child


def main() -> int:
    env = child_env(Path.cwd())
    REFS.mkdir(exist_ok=True)
    for op in all_ops():
        rc, record, err = run_child(["--trace", "0", "--", *op.argv], env)
        if record is None or record["rc"] != 0:
            print(f"{op.ref}: failed ({rc}) {err.strip()}", file=sys.stderr)
            return 1
        if op.argv[:3] == ("census", "--max-n", "131"):
            problems = census_contract(record["output"])
            if problems:
                print(f"{op.ref}: {'; '.join(problems)}", file=sys.stderr)
                return 1
        (REFS / op.ref).write_text(record["output"], encoding="utf-8")
        print(f"{op.ref}: {record['wall_s']:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
