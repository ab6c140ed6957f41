"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py --setup
    python3 perfbench/child.py --trace 0|1 -- <modcurve command line>

``--setup`` imports ``modcurve`` and loads the fact table between two
runs of ``probe``, and prints the environment and the mean probe time as
one JSON line; ``run.py`` times the whole process.

Otherwise the child makes the same set-up (with ``--trace 1``, after
wrapping the layers with ``spans.Tracer``, so that ``facts.load_s``
includes it), then runs the command line through ``modcurve.cli.main``
with its standard output captured.  It samples ``probe`` before and after
the call and, untraced, also during it.  It prints one JSON line: the
command's exit code and output, the wall and CPU time of the call, the
mean probe time, the process's peak resident memory, and the raw trace.
Its lru caches start empty, as they do for a command-line user.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

#: Seconds between samples of the host's speed during an operation.
PROBE_INTERVAL_S = 0.1


def probe() -> float:
    """Wall time of a fixed pure-Python computation, 3 to 5 ms on the
    2-core host the benchmark was built on: a loop of integer arithmetic
    that runs in the interpreter, as the package's inner loops do.  Shared
    hosts change speed by up to 2x within seconds; this tracks that speed.

    It creates no object the garbage collector tracks, so no collection
    over the program's heap lands in a sample.
    """
    start = time.perf_counter()
    j = acc = 1
    for _ in range(20000):
        j = (j * 1103515245 + 12345) & 0xFFFFF
        acc ^= j
    return time.perf_counter() - start


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup() -> None:
    """What every command pays before its work: imports and the fact table."""
    import modcurve.cli  # noqa: F401
    from modcurve.facts import FactBook

    FactBook()


def environment() -> dict:
    import numpy

    import modcurve
    from modcurve import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imports": _kernels.HAS_NUMBA,
        "kernel_backend": _kernels.resolve_backend(),
        "modcurve": modcurve.__version__,
    }


def run(argv: list[str], trace: bool) -> dict:
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup()
    from modcurve import cli

    # The host's speed is sampled before and after the call and, untraced,
    # during it on a timer; the time spent sampling during the call is
    # taken out of its wall and CPU time.  Traced, a sample inside the
    # call would land in the self time of whichever span was open.
    samples = [probe()]
    during: list[float] = []
    if tracer is None:
        signal.signal(signal.SIGALRM, lambda *_: during.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    out = io.StringIO()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        signal.setitimer(signal.ITIMER_REAL, 0)
    samples += during + [probe()]
    return {
        "rc": rc,
        "output": out.getvalue(),
        "wall_s": wall - sum(during),
        "cpu_s": cpu - sum(during),
        "probe_s": statistics.fmean(samples),
        "peak_rss_mb": _peak_rss_mb(),
        "trace": tracer.raw() if tracer is not None else None,
    }


def main() -> None:
    args = sys.argv[1:]
    if args == ["--setup"]:
        first = probe()
        setup()
        last = probe()
        result = {"env": environment(), "probe_s": (first + last) / 2}
    else:
        if len(args) < 3 or args[0] != "--trace" or args[2] != "--":
            raise SystemExit("usage: child.py --setup | --trace 0|1 -- ARGS...")
        result = run(args[3:], args[1] == "1")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
