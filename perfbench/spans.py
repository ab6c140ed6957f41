"""Per-layer spans and counters, installed from outside the package.

``install()`` replaces the public functions and public methods of every
layer module of ``modcurve`` with thin wrappers, in every ``modcurve``
module namespace that holds them, so that calls between modules go
through the wrappers too.  Each wrapper records one span per call.  A
span's self time is its duration minus the durations of the wrapped spans
nested directly inside it; a layer's self time is the sum over its spans.

Wrappers sit outside the ``lru_cache`` objects, so cache hits are counted
as calls, and ``cache_info()`` of the original objects still gives misses.
``Mat2`` and ``Witness`` creations are counted without spans: ``Mat2`` is
built millions of times and a span per object would swamp the trace.

Nothing here is imported by ``modcurve`` itself; the package is unchanged.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

#: Layer name for each module; metric names use the layer name.
LAYERS = {
    "modcurve.zmodn": "zmodn",
    "modcurve._kernels": "kernels",
    "modcurve.congruence": "congruence",
    "modcurve.matrices": "matrices",
    "modcurve.qforms": "qforms",
    "modcurve.atkinlehner": "atkinlehner",
    "modcurve.facts": "facts",
    "modcurve.classify": "classify",
    "modcurve.cli": "cli",
}

#: Classes whose creations are counted instead of their methods spanned:
#: Mat2 is built millions of times, and Witness creations give the yield.
_COUNT_ONLY = {"Mat2", "Witness"}

#: The span whose top-level calls are the curves a user asked for.
_CURVE_KEY = "classify.Classifier.classify"


class Tracer:
    """Collects spans and counts for one process."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.top_curve_ms: list[float] = []
        self._curve_depth = 0
        self._curve_keys: set[tuple] = set()
        self._cached: dict[str, object] = {}

    # -- wrapping ------------------------------------------------------------

    def _span(self, key: str, fn, after=None):
        stack, self_s, total_s, calls = self._stack, self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_s[key] += dur - frame[0]
                total_s[key] += dur
                calls[key] += 1
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _count_init(self, cls, key: str) -> None:
        init = cls.__init__
        counts = self.counts

        def counted(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted

    def install(self) -> None:
        """Wrap the layers of the package, importing it first."""
        import modcurve.cli  # noqa: F401  (pulls in every layer)

        modules = {name: sys.modules[name] for name in LAYERS}
        replaced: dict[int, object] = {}
        for modname, mod in modules.items():
            layer = LAYERS[modname]
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for name in names:
                obj = getattr(mod, name)
                if inspect.isclass(obj) and obj.__module__ == modname:
                    self._wrap_class(obj, layer)
                elif callable(obj) and getattr(obj, "__module__", None) == modname:
                    if hasattr(obj, "cache_info"):
                        self._cached[f"{layer}.{name}"] = obj
                    wrapper = self._span(f"{layer}.{name}", obj, self._after_hook(layer, name))
                    replaced[id(obj)] = wrapper
        for modname, mod in list(sys.modules.items()):
            if modname != "modcurve" and not modname.startswith("modcurve."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, cls, layer: str) -> None:
        if cls.__name__ in _COUNT_ONLY:
            self._count_init(cls, f"{layer}.{cls.__name__}.created")
            return
        for name, member in list(vars(cls).items()):
            if name.startswith("_") or not inspect.isfunction(member):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            wrap = self._curve_span if key == _CURVE_KEY else self._span
            setattr(cls, name, wrap(key, member))

    def _after_hook(self, layer: str, name: str):
        if (layer, name) == ("kernels", "canonical_pair_table"):
            def cells(args, result):
                self.counts["kernels.cells"] += args[0] * args[0] * len(args[1])
            return cells
        if (layer, name) == ("congruence", "coset_action"):
            seen: set[tuple] = set()

            def cosets(args, result):
                key = (result.N, result.delta.elements)
                if key not in seen:
                    seen.add(key)
                    self.counts["congruence.cosets"] += result.degree
            return cosets
        return None

    def _curve_span(self, key: str, fn):
        """Span for Classifier.classify that also times top-level curves."""
        inner = self._span(key, fn)

        def classify(clf, N, delta):
            label = getattr(delta, "label", delta)
            self._curve_keys.add((id(clf), N, label if isinstance(label, str) else tuple(label)))
            top = self._curve_depth == 0
            self._curve_depth += 1
            start = time.perf_counter()
            try:
                return inner(clf, N, delta)
            finally:
                self._curve_depth -= 1
                if top:
                    self.top_curve_ms.append((time.perf_counter() - start) * 1e3)

        functools.update_wrapper(classify, fn)
        return classify

    # -- results ---------------------------------------------------------------

    def raw(self) -> dict:
        """Per-process sums, to be added up across operations."""
        misses = {key: fn.cache_info().misses for key, fn in self._cached.items()}
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "misses": misses,
            "distinct_curves": len(self._curve_keys),
            "top_curve_ms": self.top_curve_ms,
        }


def merge(raws: list[dict]) -> dict:
    """Add up the raw traces of several processes."""
    out: dict = {"top_curve_ms": [], "distinct_curves": 0}
    for raw in raws:
        for field, value in raw.items():
            if isinstance(value, dict):
                acc = out.setdefault(field, {})
                for key, v in value.items():
                    acc[key] = acc.get(key, 0) + v
            elif isinstance(value, list):
                out[field].extend(value)
            else:
                out[field] += value
    return out


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(raw: dict) -> dict[str, float]:
    """The per-layer metrics, from merged raw traces of one repetition."""
    s = raw.get("self_s", {})
    ls: defaultdict[str, float] = defaultdict(float)
    for key, value in s.items():
        ls[key.split(".", 1)[0]] += value
    t = raw.get("total_s", {})
    c = raw.get("calls", {})
    n = raw.get("counts", {})
    m = raw.get("misses", {})
    curve_calls = c.get(_CURVE_KEY, 0)
    route_calls = c.get("classify.lift_fixed_points", 0) + c.get("classify.coset_fixed_points", 0)
    return {
        "zmodn.self_s": ls.get("zmodn", 0.0),
        "zmodn.subgroups.calls": c.get("zmodn.subgroups_containing_minus1", 0),
        "zmodn.subgroups.misses": m.get("zmodn.subgroups_containing_minus1", 0),
        "zmodn.delta_from_elements.calls": c.get("zmodn.delta_from_elements", 0),
        "kernels.self_s": ls.get("kernels", 0.0),
        "kernels.cells": n.get("kernels.cells", 0),
        "congruence.self_s": ls.get("congruence", 0.0),
        "congruence.cusp_table.self_s": s.get("congruence.cusp_table", 0.0),
        "congruence.coset_action.misses": m.get("congruence.coset_action", 0),
        "congruence.cusp_table.misses": m.get("congruence.cusp_table", 0),
        "congruence.cosets": n.get("congruence.cosets", 0),
        "matrices.mat2_created": n.get("matrices.Mat2.created", 0),
        "qforms.self_s": ls.get("qforms", 0.0),
        "qforms.fixed_points_X0.misses": m.get("qforms.fixed_points_X0", 0),
        "qforms.reduced_classes.misses": m.get("qforms.reduced_classes", 0),
        "atkinlehner.self_s": ls.get("atkinlehner", 0.0),
        "atkinlehner.normalizes.calls": c.get("atkinlehner.normalizes", 0),
        "atkinlehner.automorphism_order.calls": c.get("atkinlehner.automorphism_order", 0),
        "classify.self_s": ls.get("classify", 0.0),
        "classify.lift.calls": c.get("classify.lift_fixed_points", 0),
        "classify.lift.self_s": s.get("classify.lift_fixed_points", 0.0),
        "classify.coset.calls": c.get("classify.coset_fixed_points", 0),
        "classify.coset.self_s": s.get("classify.coset_fixed_points", 0.0),
        "classify.cuspidal.self_s": s.get("classify.cuspidal_fixed_count", 0.0),
        "classify.curves.calls": curve_calls,
        "classify.memo_hit_ratio": (
            1.0 - raw.get("distinct_curves", 0) / curve_calls if curve_calls else 0.0
        ),
        "classify.witness_yield": (
            n.get("classify.Witness.created", 0) / route_calls if route_calls else 0.0
        ),
        "classify.curve_p50_ms": _percentile(raw.get("top_curve_ms", []), 50),
        "classify.curve_p90_ms": _percentile(raw.get("top_curve_ms", []), 90),
        "facts.load_s": t.get("facts.load_facts", 0.0),
        "facts.lookups": c.get("facts.FactBook.get", 0),
        "cli.self_s": ls.get("cli", 0.0),
    }
