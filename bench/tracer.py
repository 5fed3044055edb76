"""Spans around the public functions of every stackycoh layer.

`Tracer.install` wraps each public function of the layer modules once and
puts the wrapper in place of every module binding of that function, so a
call through `cohomline.feasible` and one through `exactlin.feasible`
both land in the span `exactlin.feasible`. Spans are kept in memory
(name, parent, start, end) and handed over with `collect` at the end of
the operation; `self_times` reduces them to self time per function.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from collections import Counter
from typing import Callable, Sequence

# Layer modules, in the order their metrics are reported.
LAYERS = ("cli", "fan", "picard", "homology", "exactlin", "cohomline", "plsearch")
PACKAGE = "stackycoh"

_LRU_TYPE = type(functools.lru_cache(maxsize=None)(lambda: None))

# Counters derived from return values, keyed by span name.
RESULT_COUNTERS: dict[str, Callable[[object], dict[str, int]]] = {
    "exactlin.fm_eliminate": lambda res: {"rows_out": len(res.rows)},
    "exactlin.has_integer_point": lambda res: {"true": int(res is True)},
    "exactlin.integer_points": lambda res: {"points": len(res.points)},
}

# lru caches whose hit and miss counts make up `homology.delta_cache`.
DELTA_CACHES = ("delta_set", "delta_fast_lowdim")


def public_functions(module: types.ModuleType) -> dict[str, object]:
    """Public functions and lru-cached functions defined in the module."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if isinstance(obj, (types.FunctionType, _LRU_TYPE)) and getattr(
            obj, "__module__", None
        ) == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}

    def wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        hook = RESULT_COUNTERS.get(qualname)
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends, counters = self.span_start, self.span_end, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                for key, value in hook(result).items():
                    counters[f"{qualname}.{key}"] += value
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap the layer functions and rebind every module reference to them."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                qualname = f"{layer}.{name}"
                self._originals[qualname] = fn
                wrappers[id(fn)] = self.wrap(qualname, fn)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        return self

    def collect(self) -> dict:
        """Spans and counters of the finished operation, ready to pickle."""
        hits = misses = 0
        for name in DELTA_CACHES:
            info = self._originals[f"homology.{name}"].cache_info()
            hits += info.hits
            misses += info.misses
        counters = dict(self.counters)
        counters["homology.delta_cache.hits"] = hits
        counters["homology.delta_cache.misses"] = misses
        return {
            "names": list(self.names),
            "span_name": self.span_name.tobytes(),
            "span_parent": self.span_parent.tobytes(),
            "span_start": self.span_start.tobytes(),
            "span_end": self.span_end.tobytes(),
            "counters": counters,
        }


def install_tracer() -> Tracer:
    return Tracer().install()


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> list[float]:
    """Self time of each span: its duration minus its child spans' durations.

    Calls are synchronous, so child spans nest inside their parent and do
    not overlap one another.
    """
    child = [0.0] * len(parents)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child[i] for i in range(len(parents))]


class LayerTotals:
    """Sums per-function calls, self time and counters over traced operations."""

    def __init__(self) -> None:
        self.ops = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()

    def add(self, trace: dict, scale: float = 1.0) -> None:
        """Add one operation's spans, their times multiplied by `scale`."""
        names = trace["names"]
        span_name = array("i", trace["span_name"])
        parents = array("i", trace["span_parent"])
        starts = array("d", trace["span_start"])
        ends = array("d", trace["span_end"])
        for name_id, t in zip(span_name, self_times(parents, starts, ends)):
            qualname = names[name_id]
            self.calls[qualname] += 1
            self.self_s[qualname] += t * scale
        self.counters.update(trace["counters"])
        self.ops += 1

    def layer_self_s(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.split(".")[0] == layer)

    def per_op(self, value: float) -> float:
        return value / self.ops if self.ops else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: LayerTotals, overhead_ratio: float) -> dict:
    """The per-layer metrics of the benchmark, as (value, unit) pairs.

    Counts and times are means per operation; ratios are taken over all
    traced operations together.
    """
    c, s, k, po = totals.calls, totals.self_s, totals.counters, totals.per_op
    decisions = c["cohomline.is_h_trivial"] + c["cohomline.cohomology"] + c[
        "cohomline.forbidden_cone"
    ]
    per_op_counts = {
        "fan.validate.calls": c["fan.validate"],
        "picard.class_of.calls": c["picard.class_of"],
        "homology.reduced_betti.calls": c["homology.reduced_betti"],
        "homology.delta_family.calls": c["homology.delta_family"],
        "homology.delta_cache.hits": k["homology.delta_cache.hits"],
        "homology.delta_cache.misses": k["homology.delta_cache.misses"],
        "exactlin.feasible.calls": c["exactlin.feasible"],
        "exactlin.fm_eliminate.calls": c["exactlin.fm_eliminate"],
        "exactlin.fm_eliminate.rows_out": k["exactlin.fm_eliminate.rows_out"],
        "exactlin.has_integer_point.calls": c["exactlin.has_integer_point"],
        "exactlin.integer_points.calls": c["exactlin.integer_points"],
        "exactlin.integer_points.points": k["exactlin.integer_points.points"],
        "exactlin.rat_rank.calls": c["exactlin.rat_rank"],
        "exactlin.smith_normal_form.calls": c["exactlin.smith_normal_form"],
        "cohomline.sign_polyhedron.calls": c["cohomline.sign_polyhedron"],
        "plsearch.criterion_report.calls": c["plsearch.criterion_report"],
    }
    per_op_times = {
        "cli.self_s": totals.layer_self_s("cli"),
        "fan.self_s": totals.layer_self_s("fan"),
        "fan.validate.self_s": s["fan.validate"],
        "picard.self_s": totals.layer_self_s("picard"),
        "homology.self_s": totals.layer_self_s("homology"),
        "exactlin.self_s": totals.layer_self_s("exactlin"),
        "exactlin.feasible.self_s": s["exactlin.feasible"],
        "exactlin.fm_eliminate.self_s": s["exactlin.fm_eliminate"],
        "exactlin.has_integer_point.self_s": s["exactlin.has_integer_point"],
        "exactlin.integer_points.self_s": s["exactlin.integer_points"],
        "exactlin.rat_rank.self_s": s["exactlin.rat_rank"],
        # rat_rank's elimination runs in rref, its own span
        "exactlin.rref.self_s": s["exactlin.rref"],
        "cohomline.self_s": totals.layer_self_s("cohomline"),
        "cohomline.sign_polyhedron.self_s": s["cohomline.sign_polyhedron"],
        "plsearch.self_s": totals.layer_self_s("plsearch"),
    }
    ratios = {
        "exactlin.has_integer_point.true_ratio": ratio(
            k["exactlin.has_integer_point.true"], c["exactlin.has_integer_point"]
        ),
        "cohomline.index_sets_per_decision": ratio(
            c["cohomline.sign_polyhedron"], decisions
        ),
        "plsearch.witness_tries": ratio(
            c["cohomline.outside_all_interiors"], c["plsearch.criterion_report"]
        ),
    }
    out = {}
    for name, value in per_op_counts.items():
        out[name] = (po(value), "count/op")
    for name, value in per_op_times.items():
        out[name] = (po(value), "s/op")
    for name, value in ratios.items():
        out[name] = (value, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
