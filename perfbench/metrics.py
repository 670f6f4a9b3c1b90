"""Metric names, units and directions, and the traced run's per-layer report.

``BENCHMARK.json`` lists the same metrics; ``run.py`` refuses to run if
the two disagree.
"""

from __future__ import annotations

from pathlib import Path

from spans import LAYERS, ROOT, SpanRecorder

#: (name, unit, better) of the metrics an untraced run reports.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: ``Lab.timings`` stages and ``Lab.counters`` keys copied into the
#: traced report as a cross-check of the span times.
LAB_STAGES = ("prepare", "optimize", "fetch", "simulate", "compose")
LAB_COUNTERS = (
    "sim_accesses",
    "sim_seconds",
    "kernel_accesses",
    "kernel_seconds",
    "kernel_passes",
    "kernel_cells",
    "analysis_accesses",
    "analysis_seconds",
    "analysis_passes",
    "analysis_cells",
    "analysis_memo_hits",
    "curve_passes",
    "curve_seconds",
    "curve_memo_hits",
    "fleet_cells",
    "fleet_seconds",
    "store_bytes_shipped",
    "store_bytes_mapped",
    "pool_fanouts",
    "pool_reuses",
)

#: span-boundary counts, in report order (all "lower is better" work).
COUNTS = (
    "engine.trace_blocks",
    "engine.fetch_lines",
    "core.affinity_accesses",
    "core.hierarchy_symbols",
    "core.trg_accesses",
    "core.trg_edges",
    "cache.solo_accesses",
    "cache.corun_accesses",
    "locality.curve_passes",
    "perf.parallel.cells",
    "perf.parallel.recomputed",
)

#: metrics where a larger value is the better outcome.
HIGHER = {
    "fleet.matrix_cells",
    "fleet.cells_per_curve_pass",
    "perf.memo.hits",
    "perf.memo.hit_ratio",
    "lab.counters.kernel_cells",
    "lab.counters.analysis_cells",
    "lab.counters.analysis_memo_hits",
    "lab.counters.curve_memo_hits",
    "lab.counters.fleet_cells",
    "lab.counters.pool_reuses",
}


def _unit(name: str) -> str:
    if name.endswith(("_s", "_seconds")):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_share", "_ratio", "_pass")):
        return "ratio"
    return "count"


def _names() -> list[str]:
    names = [f"{layer}_s" for layer in LAYERS]
    names.append(f"{ROOT}.self_s")
    names.append("workloads.programs")
    names.extend(COUNTS)
    names += [
        "fleet.matrix_cells",
        "fleet.cells_per_curve_pass",
        "perf.memo.disk_bytes",
        "perf.memo.misses",
        "perf.memo.hits",
        "perf.memo.hit_ratio",
        "perf.store.bytes_shipped",
        "perf.store.bytes_mapped",
    ]
    names += [f"{layer}.self_share" for layer in (*LAYERS, ROOT)]
    names += ["tracing.wall_s", "tracing.overhead_s", "tracing.spans"]
    names += [f"lab.timings.{stage}_s" for stage in LAB_STAGES]
    names += [f"lab.counters.{key}" for key in LAB_COUNTERS]
    return names


#: (name, unit, better) of the metrics a traced run reports.
PER_LAYER = tuple(
    (name, _unit(name), "higher" if name in HIGHER else "lower") for name in _names()
)


def layer_report(rec: SpanRecorder, lab, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation on ``lab``.

    ``tracing.overhead_s`` is left out: it needs an untraced run, which
    the client pairs with this one.
    """
    inclusive = rec.inclusive_times()
    own = rec.self_times()
    out: dict[str, float] = {f"{layer}_s": inclusive.get(layer, 0.0) for layer in LAYERS}
    out[f"{ROOT}.self_s"] = own.get(ROOT, 0.0)
    out["workloads.programs"] = len(rec.programs)
    for key in COUNTS:
        out[key] = rec.counts.get(key, 0)
    cells = rec.counts.get("fleet.matrix_cells", 0)
    out["fleet.matrix_cells"] = cells
    # All-memo-hit runs make no fresh pass; their cells count per one.
    out["fleet.cells_per_curve_pass"] = cells / max(1, out["locality.curve_passes"])

    memo = lab.memo
    hits = memo.hits if memo is not None else 0
    misses = memo.misses if memo is not None else 0
    out["perf.memo.disk_bytes"] = _dir_bytes(memo.cache_dir) if memo is not None else 0
    out["perf.memo.misses"] = misses
    out["perf.memo.hits"] = hits
    out["perf.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["perf.store.bytes_shipped"] = lab.counters["store_bytes_shipped"]
    out["perf.store.bytes_mapped"] = lab.counters["store_bytes_mapped"]

    for layer in (*LAYERS, ROOT):
        out[f"{layer}.self_share"] = own.get(layer, 0.0) / wall_s
    out["tracing.wall_s"] = wall_s
    out["tracing.spans"] = len(rec.spans)
    for stage in LAB_STAGES:
        out[f"lab.timings.{stage}_s"] = lab.timings.get(stage, 0.0)
    for key in LAB_COUNTERS:
        out[f"lab.counters.{key}"] = lab.counters.get(key, 0)
    return out


def _dir_bytes(path) -> int:
    if path is None or not Path(path).is_dir():
        return 0
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())
