"""Timing telemetry for the experiment pipeline: ``BENCH_perf.json``.

A lab's telemetry is one nested record
(:meth:`~repro.experiments.pipeline.Lab.snapshot`).  :func:`add_into` is
the one rule that combines records and :func:`delta` its inverse;
:class:`Telemetry` sums the records of a suite run and renders the
report (:data:`BENCH_SCHEMA`, documented in ``docs/performance.md``).
The CI gates add their own sections via :func:`merge_bench_section`.

All durations come from the monotonic clock (``time.perf_counter``);
only the single ``generated_at`` stamp is epoch time.
"""

from __future__ import annotations

import json
import time
from numbers import Number
from pathlib import Path
from typing import Any, Optional

from ..robust.atomic import atomic_write_text

__all__ = [
    "BENCH_SCHEMA", "Telemetry", "add_into", "compare_journal_outcomes",
    "delta", "merge_bench_section", "rate",
]

#: schema tag of BENCH_perf.json; bump on breaking layout changes.  The
#: v8 layout (docs/performance.md) has the "stages", "simulator",
#: "kernel", "analysis" and "staticlint" sections, "memo", "resilience"
#: (supervised runs), "store" (trace-store transport), "fleet"
#: (footprint-curve composition), and the "kernel_backend" tier that
#: also tags the "kernel" and "analysis" sections.
BENCH_SCHEMA = "repro.perf/bench.v8"

#: journal-entry fields that legitimately differ between two runs of the
#: same suite (wall-clock measurements); everything else must match.
TIMING_FIELDS = ("elapsed_s", "finished_at", "timings")

#: the one derived field a snapshot carries (``SimMemo.counters``); it
#: is recomputed from the summed hits/misses, never summed or diffed.
_DERIVED = "hit_rate"


def add_into(total: dict, part: Optional[dict]) -> dict:
    """Fold the telemetry record ``part`` into ``total`` in place.

    The one combine rule for every telemetry number: numbers sum, bools
    OR (``partial`` stays true if *any* contributing pool gave up early;
    ``bool`` is checked first because it is an ``int`` subclass),
    nested dicts recurse, anything else (the backend tier name) is
    last-writer-wins.  ``None`` values and the derived ``hit_rate`` are
    skipped.  Returns ``total``.
    """
    for key, value in (part or {}).items():
        if key == _DERIVED or value is None:
            continue
        if isinstance(value, dict):
            add_into(total.setdefault(key, {}), value)
        elif isinstance(value, bool):
            total[key] = bool(total.get(key)) or value
        elif isinstance(value, Number):
            total[key] = total.get(key, 0) + value
        else:
            total[key] = value
    return total


def delta(after: dict, before: dict) -> dict:
    """What the record ``after`` grew by since ``before``.

    The inverse of :func:`add_into`: ``add_into(before, delta(after,
    before))`` sums back to ``after``.  Numbers subtract; bools and
    strings are taken from ``after``; nested dicts recurse.  A
    long-lived worker lab ships these per task so the parent can sum
    them without double counting.
    """
    out: dict = {}
    for key, value in after.items():
        if key == _DERIVED or value is None:
            continue
        if isinstance(value, dict):
            out[key] = delta(value, before.get(key) or {})
        elif isinstance(value, Number) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
        else:
            out[key] = value
    return out


def rate(amount: float, seconds: float) -> float:
    """``amount / seconds``, or 0.0 when nothing was timed."""
    return amount / seconds if seconds > 0 else 0.0


class Telemetry:
    """Aggregated timing/throughput counters for one suite run.

    Every lab or worker contributes one snapshot (or snapshot delta) of
    the shape :meth:`repro.experiments.pipeline.Lab.snapshot` returns —
    ``stages``, ``counters``, ``memo``, ``store``, ``kernel_backend`` —
    plus the supervisor's ``resilience`` stats; :meth:`merge` folds them
    into :attr:`totals` and :meth:`to_dict` renders the bench.v8 report.
    """

    def __init__(self, *, jobs: int = 1, scale: float = 1.0):
        self.jobs = jobs
        self.scale = scale
        #: every merged snapshot, combined by :func:`add_into`.
        self.totals: dict[str, Any] = {}
        #: per-experiment outcome summaries, in completion order.
        self.experiments: dict[str, dict[str, Any]] = {}
        self.wall_s = 0.0

    def merge(self, snapshot: Optional[dict]) -> None:
        add_into(self.totals, snapshot)

    def record_experiment(
        self, exp_id: str, status: str, elapsed_s: float, attempts: int
    ) -> None:
        self.experiments[exp_id] = {
            "status": status,
            "elapsed_s": round(elapsed_s, 3),
            "attempts": attempts,
        }

    # -- rendering ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        totals = self.totals
        counters = totals.get("counters", {})

        def count(key: str) -> int:
            return int(counters.get(key, 0))

        def throughput(prefix: str, unit: str = "accesses", name: str = "") -> dict:
            name = name or unit
            amount = count(f"{prefix}_{unit}")
            seconds = float(counters.get(f"{prefix}_seconds", 0.0))
            return {
                name: amount,
                "seconds": round(seconds, 4),
                f"{name}_per_s": round(rate(amount, seconds), 1),
            }

        backend = totals.get("kernel_backend")
        memo = {k: int(v) for k, v in totals.get("memo", {}).items()}
        if memo:
            keyed = memo.get("hits", 0) + memo.get("misses", 0)
            memo[_DERIVED] = round(memo.get("hits", 0) / keyed, 4) if keyed else 0.0

        # bench.v6 transport section, rendered once anything shipped. The
        # TraceStore's own counters nest under "backend": its bytes_mapped
        # (bytes attached via get()) is a different metric from the
        # transport-level bytes_mapped (bytes the shipped refs describe).
        store: Optional[dict[str, Any]] = {
            "bytes_shipped": count("store_bytes_shipped"),
            "bytes_mapped": count("store_bytes_mapped"),
            "pool_fanouts": count("pool_fanouts"),
            "pool_reuses": count("pool_reuses"),
        }
        backend_store = totals.get("store", {})
        if backend_store:
            store["backend"] = {k: int(v) for k, v in sorted(backend_store.items())}
        elif not (
            store["bytes_shipped"] or store["bytes_mapped"] or store["pool_fanouts"]
        ):
            store = None

        # bench.v7 composition section, rendered once any curve ran.
        passes, hits = count("curve_passes"), count("curve_memo_hits")
        fleet: Optional[dict[str, Any]] = None
        if passes or hits or count("fleet_cells"):
            fleet = {
                **throughput("fleet", "cells"),
                "curve_passes": passes,
                "curve_memo_hits": hits,
                "curve_seconds": round(float(counters.get("curve_seconds", 0.0)), 4),
                "cells_per_curve": round(rate(count("fleet_cells"), passes + hits), 1),
            }

        return {
            "schema": BENCH_SCHEMA,
            "generated_at": time.time(),
            "jobs": self.jobs,
            "scale": self.scale,
            "kernel_backend": backend,
            "wall_s": round(self.wall_s, 3),
            "experiments": self.experiments,
            "stages": {
                k: round(v, 4) for k, v in sorted(totals.get("stages", {}).items())
            },
            "simulator": throughput("sim"),
            "kernel": {
                "backend": backend,
                **throughput("kernel"),
                "passes": count("kernel_passes"),
                "cells": count("kernel_cells"),
                "cells_per_pass": round(
                    rate(count("kernel_cells"), count("kernel_passes")), 2
                ),
            },
            "analysis": {
                "backend": backend,
                **throughput("analysis"),
                "passes": count("analysis_passes"),
                "cells": count("analysis_cells"),
                "memo_hits": count("analysis_memo_hits"),
            },
            "staticlint": {
                **throughput("staticlint", "diags", "diagnostics"),
                "certified": count("staticlint_certified"),
            },
            "memo": memo or None,
            "resilience": totals.get("resilience") or None,
            "store": store,
            "fleet": fleet,
        }

    def write(self, path: str | Path) -> Path:
        """Atomically write the report; returns the path."""
        path = Path(path)
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path


def merge_bench_section(path: str | Path, name: str, section: Any) -> Path:
    """Set one gate's ``name`` section of the report at ``path``.

    Loads the report (or starts ``{"schema": BENCH_SCHEMA}`` when it is
    missing or unreadable), sets the section, and writes atomically.
    The sections :meth:`Telemetry.to_dict` renders belong to the suite
    run; a gate writing one of them would clobber the suite's numbers,
    so those names raise :class:`ValueError`.
    """
    if name in Telemetry().to_dict():
        raise ValueError(
            f"{name!r} is a suite section of {BENCH_SCHEMA}; "
            "a gate writes its own *_bench section"
        )
    path = Path(path)
    try:
        bench = json.loads(path.read_text())
    except (OSError, ValueError):
        bench = None
    if not isinstance(bench, dict):
        bench = {"schema": BENCH_SCHEMA}
    bench[name] = section
    atomic_write_text(path, json.dumps(bench, indent=2, sort_keys=True))
    return path


def _canonical(value: Any) -> str:
    """Exact, NaN-equal comparison key of a journal field value.

    ``json.dumps`` renders every float by its shortest round-tripping
    repr and NaN as ``NaN``, so two values compare equal exactly when
    they are bit-identical (NaN equal to NaN, ``0.0`` unequal to
    ``-0.0``).
    """
    return json.dumps(value, sort_keys=True)


def _field_diff(name: str, va: Any, vb: Any) -> str:
    """Describe how one journal field differs (the first few keys/rows)."""
    if isinstance(va, dict) and isinstance(vb, dict):
        keys = sorted(set(va) | set(vb))
        bad = [
            k for k in keys
            if k not in va or k not in vb or _canonical(va[k]) != _canonical(vb[k])
        ]
        shown = ", ".join(f"{k}: {va.get(k)!r} vs {vb.get(k)!r}" for k in bad[:3])
        more = f" (+{len(bad) - 3} more)" if len(bad) > 3 else ""
        return f"{name} differs at {shown}{more}"
    if isinstance(va, list) and isinstance(vb, list) and len(va) == len(vb):
        row = next(i for i, (ra, rb) in enumerate(zip(va, vb)) if _canonical(ra) != _canonical(rb))
        return f"{name} differ at row {row}: {va[row]!r} vs {vb[row]!r}"
    return f"{name} differs: {va!r} vs {vb!r}"


def compare_journal_outcomes(
    a: list[dict], b: list[dict], *, ignore: tuple[str, ...] = ()
) -> list[str]:
    """Differences between two run journals, ignoring timing fields.

    Parity oracle for parallel-vs-serial runs and for a golden journal:
    the entries must agree in count, order, and every non-timing field,
    outcomes included (each entry's ``summary`` numbers and ``rows``,
    compared exactly, NaN equal to NaN).  The on-disk ``check``
    checksum is always ignored (it is a storage artifact, not an
    outcome); callers may ignore further fields via ``ignore`` — the
    chaos soak gate passes ``("attempts",)`` because infrastructure
    redispatch legitimately inflates attempt counts without changing
    outcomes.  Returns human-readable difference descriptions (empty =
    parity holds).
    """
    skip = set(TIMING_FIELDS) | {"check"} | set(ignore)
    diffs: list[str] = []
    if len(a) != len(b):
        diffs.append(f"entry count differs: {len(a)} vs {len(b)}")
    for i, (ea, eb) in enumerate(zip(a, b)):
        for name in sorted((set(ea) | set(eb)) - skip):
            va, vb = ea.get(name), eb.get(name)
            if (name in ea) != (name in eb) or _canonical(va) != _canonical(vb):
                diffs.append(f"entry {i} ({ea.get('exp_id')}): {_field_diff(name, va, vb)}")
    return diffs
