"""In-memory span recorder and the per-layer wrap points of the traced run.

A span is ``[name, start, end, parent]``: monotonic start and end times
and the index of the span that was open when it began (``-1`` at the
root).  Spans stay in memory until the workload process reports them.

The recorder times each layer from outside the program: :func:`install`
replaces a layer's public function with a timing wrapper *where the
pipeline looks it up* (for example ``build_hierarchy`` in
``repro.core.optimizers``), so no file of the program changes.  Counts
(trace blocks, accesses, edges, cells) are taken at the same
boundaries.  Pool workers are separate processes: work done there shows
only as the parent's ``perf.parallel.fanout`` span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: timed layers, in report order.  Each becomes ``<layer>_s`` (inclusive
#: time) and ``<layer>.self_share`` (self time over traced wall time).
LAYERS = (
    "workloads.build",
    "engine.instrument",
    "engine.fetch",
    "core.affinity_kernel",
    "core.hierarchy",
    "core.trg_kernel",
    "core.trg_reduce",
    "core.layout",
    "cache.solo",
    "cache.corun",
    "locality.footprint",
    "fleet.compose",
    "fleet.placement",
    "perf.memo.write",
    "perf.memo.read",
    "perf.store.publish",
    "perf.parallel.fanout",
)

#: name of the root span around one workload operation.
ROOT = "experiments"

Counter = Callable[["SpanRecorder", Any, tuple, dict], None]


class SpanRecorder:
    """Nested spans plus named counts, kept in memory for one process.

    Single-threaded by design: the pipeline calls every wrapped layer
    from the main thread (pool workers run in other processes).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.programs: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, Any, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def wrap(self, fn: Callable, layer: Optional[str], counter: Optional[Counter] = None):
        """``fn`` timed as ``layer`` (``None``: count only)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(layer):
                    result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, result, args, kwargs)
            return result

        return traced

    def patch(self, owner: Any, attr: str, layer: Optional[str], counter: Optional[Counter] = None) -> None:
        """Time ``owner.attr`` (or ``owner[attr]`` for a dict) as ``layer``
        until :meth:`close`."""
        self.replace(owner, attr, lambda fn: self.wrap(fn, layer, counter))

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`close`."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------

    def inclusive_times(self) -> dict[str, float]:
        """Per layer, the time its outermost spans cover (a span nested in
        a span of the same layer is not counted twice)."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if not self._has_ancestor(parent, name):
                totals[name] += end - start
        return dict(totals)

    def self_times(self) -> dict[str, float]:
        """Per layer, span time minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return dict(totals)

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False


def _length(key: str) -> Counter:
    def counter(rec: SpanRecorder, result, args, kwargs) -> None:
        rec.count(key, len(args[0]))

    return counter


def _result_length(key: str) -> Counter:
    def counter(rec: SpanRecorder, result, args, kwargs) -> None:
        rec.count(key, len(result))

    return counter


def _total_length(key: str) -> Counter:
    def counter(rec: SpanRecorder, result, args, kwargs) -> None:
        rec.count(key, sum(len(s) for s in args[0]))

    return counter


def _program(rec: SpanRecorder, result, args, kwargs) -> None:
    rec.programs.add(args[0])


def _trace_blocks(rec: SpanRecorder, result, args, kwargs) -> None:
    rec.count("engine.trace_blocks", len(result.bb_trace))


def _hierarchy_symbols(rec: SpanRecorder, result, args, kwargs) -> None:
    import numpy as np

    rec.count("core.hierarchy_symbols", int(np.unique(args[0].trace).size))


def _trg_edges(rec: SpanRecorder, result, args, kwargs) -> None:
    rec.count("core.trg_edges", args[0].n_edges)


def _one_pass(rec: SpanRecorder, result, args, kwargs) -> None:
    rec.count("locality.curve_passes", 1)


def _matrix_cells(rec: SpanRecorder, result, args, kwargs) -> None:
    rec.count("fleet.matrix_cells", result.matrix_cells)


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary of the pipeline for ``rec``.

    Must run before the ``Lab`` is constructed: the lab resolves its
    kernel backend once, at construction.
    """
    mod = importlib.import_module
    pipeline = mod("repro.experiments.pipeline")
    optimizers = mod("repro.core.optimizers")
    memo = mod("repro.perf.memo")
    parallel = mod("repro.perf.parallel")
    backends = mod("repro.perf.backends")
    compose = mod("repro.fleet.compose")
    placement = mod("repro.fleet.placement")
    simulator = mod("repro.fleet.simulator")
    exp_fleet = mod("repro.experiments.exp_fleet")
    store = mod("repro.perf.store")

    rec.patch(pipeline, "build_suite_program", "workloads.build", _program)
    rec.patch(pipeline, "collect_trace", "engine.instrument", _trace_blocks)
    rec.patch(pipeline, "fetch_lines", "engine.fetch", _result_length("engine.fetch_lines"))
    rec.patch(optimizers, "build_hierarchy", "core.hierarchy", _hierarchy_symbols)
    rec.patch(optimizers, "reduce_trg", "core.trg_reduce", _trg_edges)
    rec.patch(optimizers, "apply_symbol_order", "core.layout")
    rec.patch(pipeline, "measure_solo", "cache.solo", _length("cache.solo_accesses"))
    rec.patch(pipeline, "simulate", "cache.solo", _length("cache.solo_accesses"))
    rec.patch(pipeline, "simulate_shared", "cache.corun", _total_length("cache.corun_accesses"))
    rec.patch(pipeline, "measure_corun", "cache.corun", _total_length("cache.corun_accesses"))
    rec.patch(pipeline, "footprint_curve", "locality.footprint", _one_pass)
    rec.patch(memo, "footprint_curve", "locality.footprint", _one_pass)
    rec.patch(parallel, "curve_cells", "locality.footprint", _length("locality.curve_passes"))
    rec.patch(compose.CurveSet, "group", "fleet.compose")
    rec.patch(compose.ComposedGroup, "miss_ratio_matrix", "fleet.compose")
    for policy in list(placement.POLICIES):
        rec.patch(placement.POLICIES, policy, "fleet.placement")
    rec.patch(simulator, "evaluate_placement", "fleet.placement")
    rec.patch(exp_fleet, "matched_pairs", "fleet.placement")
    rec.patch(exp_fleet, "run_fleet", None, _matrix_cells)
    for method in ("put", "put_histogram", "put_curve", "put_analysis"):
        rec.patch(memo.SimMemo, method, "perf.memo.write")
    for method in ("get", "get_histogram", "get_curve"):
        rec.patch(memo.SimMemo, method, "perf.memo.read")
    rec.patch(store.TraceStore, "put", "perf.store.publish")
    rec.replace(parallel.CellPool, "map", lambda fn: _traced_map(rec, fn))
    rec.replace(backends, "resolve_backend", lambda fn: _traced_resolve(rec, fn))


def _traced_map(rec: SpanRecorder, original: Callable) -> Callable:
    """``CellPool.map`` timed as the fan-out, counting cells and retries."""

    @functools.wraps(original)
    def traced(pool, fn, cells):
        before = pool.recomputed
        with rec.span("perf.parallel.fanout"):
            result = original(pool, fn, cells)
        rec.count("perf.parallel.cells", len(cells))
        rec.count("perf.parallel.recomputed", pool.recomputed - before)
        return result

    return traced


def _traced_resolve(rec: SpanRecorder, original: Callable) -> Callable:
    """``resolve_backend`` handing out backends whose kernels are timed."""
    wrapped: dict[str, Any] = {}

    @functools.wraps(original)
    def traced(name=None, *, strict=True):
        backend = original(name, strict=strict)
        if backend.name not in wrapped:
            wrapped[backend.name] = dataclasses.replace(
                backend,
                histogram=rec.wrap(backend.histogram, "cache.solo", _length("cache.solo_accesses")),
                affinity=rec.wrap(backend.affinity, "core.affinity_kernel", _length("core.affinity_accesses")),
                trg=rec.wrap(backend.trg, "core.trg_kernel", _length("core.trg_accesses")),
            )
        return wrapped[backend.name]

    return traced
