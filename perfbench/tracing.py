"""Span tracing of braidcensus from outside the package.

The tracer replaces every public function of the layer modules with a
wrapper that records one span (name, start, end, parent) per call.  It
patches each module attribute that holds the original function, so
names a caller imported with ``from .graphs import canonical_code`` are
caught too: the sweep resolves ``braidcensus.sweep.canonical_code`` at
call time.  Spans stay in memory until the run writes them out.

Bit helpers that the engines call once per DFS node (``bits_of`` and
friends) are left unwrapped: a span per call would cost more than the
work it measures.  Generator functions are skipped because a wrapper
would time only the creation of the generator.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("graphs", "families", "census", "recognition", "game", "sweep", "cli")
UNTRACED = {"bits_of", "mask_of", "vertices_of", "pair_order", "main", "build_parser"}
# A span of a key's name called directly from a span of the value's name
# is that caller's own work, and its self time goes to the caller:
# p2_max is a loop of count_induced_st_paths calls, and cycles_per_vertex
# is a callback handed to visit_induced_cycles.
FOLD_INTO_PARENT = {
    "census.count_induced_st_paths": "census.p2_max",
    "census.visit_induced_cycles": "census.cycles_per_vertex",
}


def _count_result(name: str, result, counts: Counter) -> object:
    """Work counters read off a layer's result; returns what the span keeps."""
    if name == "census.count_induced_cycles":
        counts["census.cycles_counted"] += result.f
    elif name == "census.count_induced_st_paths":
        counts["census.paths_counted"] += result.p2
    elif name == "census.path_tree_stats":
        counts["census.paths_counted"] += result.y_leaf_count
    elif name == "sweep.exhaustive_max":
        counts["sweep.graphs_scanned"] += result.graphs_scanned
        return result.quantity
    elif name == "sweep.merge_sweeps":
        counts["sweep.classes"] += len(result.extremal_codes)
    return None


class Tracer:
    """Spans as lists [name, start_ns, end_ns, parent, task, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.task = ""

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, self.task, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def run_task(self, name: str, fn):
        """Run one benchmark task under a root span named after it."""
        self.task = name
        rec = self._open("task")
        try:
            return fn()
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec[5] = _count_result(name, result, self.counts)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        import importlib

        package = importlib.import_module("braidcensus")
        modules = [package] + [
            importlib.import_module(f"braidcensus.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or attr in UNTRACED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._undo):
            setattr(module, attr, obj)
        self._undo.clear()

    # -- derived figures ---------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span self time in ns: duration minus direct children."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def summary(self) -> dict:
        """Self ms (folded per FOLD_INTO_PARENT) and call count per span
        name, plus the derived ratios."""
        own = self.self_times()
        ms: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for rec, ns in zip(self.spans, own):
            name = rec[0]
            caller = self.spans[rec[3]][0] if rec[3] >= 0 else None
            ms[caller if caller == FOLD_INTO_PARENT.get(name) else name] += ns / 1e6
            calls[name] += 1
        return {
            "self_ms": dict(ms),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "canonical_in_sweeps": self._canonical_in_sweeps(),
            "p2_canonical_share": self._p2_canonical_share(),
        }

    def _sweep_ancestor(self, index: int) -> int:
        parent = self.spans[index][3]
        while parent >= 0 and self.spans[parent][0] != "sweep.exhaustive_max":
            parent = self.spans[parent][3]
        return parent

    def _canonical_in_sweeps(self) -> int:
        return sum(
            1
            for i, rec in enumerate(self.spans)
            if rec[0] == "graphs.canonical_code" and self._sweep_ancestor(i) >= 0
        )

    def _p2_canonical_share(self) -> float:
        """Share of p2-sweep wall time spent inside canonical_code, in %."""
        canon = total = 0
        for i, rec in enumerate(self.spans):
            if rec[0] == "sweep.exhaustive_max" and rec[5] == "p2":
                total += rec[2] - rec[1]
            elif rec[0] == "graphs.canonical_code":
                top = self._sweep_ancestor(i)
                if top >= 0 and self.spans[top][5] == "p2":
                    canon += rec[2] - rec[1]
        return 100.0 * canon / total if total else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                name, start, end, parent, task, _ = rec
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "task": task}
                    )
                    + "\n"
                )
