"""Span tracing of the tracefault layers from outside the package.

The tracer replaces each traced public function with a wrapper at every
place the function object is bound inside ``tracefault`` (for example
``tracefault.graph.betweenness`` and the copy ``tracefault.features``
imported), so calls are seen whichever module makes them. Nothing in the
package is edited; ``uninstall`` puts the originals back.

Each span has an id, its parent's id, its thread id and the request (CLI
command) it belongs to. Every thread keeps its own span stack. A span opened
on a pool thread with an empty stack is parented to the span the main thread
has open, which is the call that started the pool. Spans are held in memory
and written out by the caller at the end.

A target that no longer exists (a later refactor renamed or removed it) is
recorded as absent and its layer reads zero; tracing never fails because of
it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    thread: int
    request: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_obj(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _edges(args, result):
    return {"edges": len(result.edges)}


def _candidates(args, result):
    return {"candidates": len(result.members), "nodes": len(args["graph"].nodes)}


def _trace_key(args, result):
    return {"trace": args["trace"].scenario_id}


def _trace_nodes(args, result):
    return {"nodes": len(args["trace"])}


def _resamples(args, result):
    return {"resamples": int(args["b"])}


def _grid_points(args, result):
    return {"points": len(result[1])}


# (layer, "module:function", attribute extractor or None). A layer may have
# several targets; it is absent only when all of them are.
TARGETS: tuple[tuple[str, str, object], ...] = (
    ("model.parse", "tracefault.model:parse_scenario", None),
    ("model.parse", "tracefault.model:parse_trace_blind", None),
    ("graph.build", "tracefault.graph:build_graph", _edges),
    ("graph.backtrace", "tracefault.graph:backtrace", _candidates),
    ("graph.betweenness", "tracefault.graph:betweenness", None),
    ("graph.descendants", "tracefault.graph:descendants", None),
    ("features.compute", "tracefault.features:compute_features", _trace_key),
    ("ranking.rank", "tracefault.ranking:rank", _trace_nodes),
    ("stats.bootstrap", "tracefault.stats:bootstrap_ci", _resamples),
    ("baselines", "tracefault.baselines:random_baseline", None),
    ("baselines", "tracefault.baselines:first_node_baseline", None),
    ("baselines", "tracefault.baselines:last_node_baseline", None),
    ("baselines", "tracefault.baselines:llm_baseline", None),
    ("evaluation.evaluate", "tracefault.evaluation:evaluate", None),
    ("evaluation.reweight", "tracefault.evaluation:ablation_table", None),
    ("evaluation.reweight", "tracefault.evaluation:sweep_over_units", None),
    ("weights.grid_search", "tracefault.weights:grid_search", _grid_points),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


class Tracer:
    """Collects spans from wrapped functions; install, run, then uninstall."""

    def __init__(self, targets=TARGETS, package: str = "tracefault"):
        self.targets = targets
        self.package = package
        self.spans: list[Span] = []
        self.request = 0
        self.missing_targets: list[str] = []
        self._ids = itertools.count(1)
        self._main_thread = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[Span]) -> int | None:
        if stack:
            return stack[-1].id
        try:
            return self._main_stack[-1].id
        except IndexError:
            return None

    def wrap(self, name: str, fn, attrs_fn=None):
        signature = inspect.signature(fn) if attrs_fn is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(
                id=next(self._ids),
                parent=self._parent(stack),
                thread=threading.get_ident(),
                request=self.request,
                name=name,
                start=time.perf_counter(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs_fn is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs = attrs_fn(bound.arguments, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass  # a renamed parameter or new result type: no counts, no crash
            return result

        return traced

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == self.package or name.startswith(self.package + "."))
        ]
        for layer, target, attrs_fn in self.targets:
            module_name, attr = target.split(":")
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing_targets.append(target)
                continue
            wrapper = self.wrap(layer, original, attrs_fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def absent_layers(self) -> list[str]:
        layers = dict.fromkeys(layer for layer, _, _ in self.targets)
        present = {layer for layer, target, _ in self.targets if target not in self.missing_targets}
        return [layer for layer in layers if layer not in present]

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def _quantile_ms(values: list[float], q: float) -> float:
    """Linear-interpolation quantile in milliseconds; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return (ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)) * 1e3


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0 with < 2 sizes."""
    points = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx


def layer_metrics(spans: list[Span], start: float, end: float) -> dict[str, float]:
    """Per-layer numbers of one traced iteration that ran from ``start`` to ``end``."""
    by_layer: dict[str, list[Span]] = {layer: [] for layer in LAYERS}
    for span in spans:
        by_layer.setdefault(span.name, []).append(span)
    own = self_times(spans)

    def calls(layer):
        return float(len(by_layer[layer]))

    def total(layer):
        return sum((s.duration for s in by_layer[layer]), 0.0)

    def self_total(layer):
        return sum((own[s.id] for s in by_layer[layer]), 0.0)

    def attr_sum(layer, key):
        return float(sum(s.attrs.get(key, 0) for s in by_layer[layer]))

    per_trace: dict[tuple[int, str], int] = {}
    for span in by_layer["features.compute"]:
        key = (span.request, span.attrs.get("trace", ""))
        per_trace[key] = per_trace.get(key, 0) + 1
    nodes = attr_sum("graph.backtrace", "nodes")
    top_level = [(s.start, s.end) for s in spans if s.parent is None]
    return {
        "model.parse.calls": calls("model.parse"),
        "model.parse.total_s": total("model.parse"),
        "model.parse.p50_ms": _quantile_ms([s.duration for s in by_layer["model.parse"]], 0.5),
        "graph.build.calls": calls("graph.build"),
        "graph.build.total_s": total("graph.build"),
        "graph.build.p95_ms": _quantile_ms([s.duration for s in by_layer["graph.build"]], 0.95),
        "graph.edges": attr_sum("graph.build", "edges"),
        "graph.backtrace.total_s": total("graph.backtrace"),
        "graph.candidates": attr_sum("graph.backtrace", "candidates"),
        "graph.candidate_ratio": attr_sum("graph.backtrace", "candidates") / nodes if nodes else 0.0,
        "graph.betweenness.calls": calls("graph.betweenness"),
        "graph.betweenness.total_s": total("graph.betweenness"),
        "graph.descendants.calls": calls("graph.descendants"),
        "graph.descendants.total_s": total("graph.descendants"),
        "features.compute.calls": calls("features.compute"),
        "features.compute.self_s": self_total("features.compute"),
        "features.calls_per_trace": (
            float(statistics.median(per_trace.values())) if per_trace else 0.0
        ),
        "ranking.rank.calls": calls("ranking.rank"),
        "ranking.rank.self_s": self_total("ranking.rank"),
        "stats.bootstrap.calls": calls("stats.bootstrap"),
        "stats.bootstrap.total_s": total("stats.bootstrap"),
        "stats.bootstrap.resamples": attr_sum("stats.bootstrap", "resamples"),
        "baselines.total_s": total("baselines"),
        "evaluation.evaluate.self_s": self_total("evaluation.evaluate"),
        "evaluation.reweight.total_s": total("evaluation.reweight"),
        "weights.grid_search.total_s": total("weights.grid_search"),
        "weights.grid_search.points": attr_sum("weights.grid_search", "points"),
        "ranking.loglog_slope": loglog_slope(
            [(s.attrs.get("nodes", 0), s.duration) for s in by_layer["ranking.rank"]]
        ),
        "trace.unattributed_s": (end - start) - covered(top_level, start, end),
    }
