"""Performance subsystem: parallel execution, memoization, telemetry.

The evaluation matrix (programs x layouts x cache configs x co-run
pairs) is embarrassingly parallel and heavily redundant; this package
makes it fast without changing a single result:

- :mod:`repro.perf.parallel` — process-pool fan-out at two levels:
  whole experiments (``python -m repro.experiments --jobs N``) and
  independent cells inside a pipeline, one row of the cell table
  :data:`~repro.perf.parallel.CELL_KINDS` per kind, run on a
  :class:`~repro.perf.parallel.CellPool`, with
  :func:`~repro.perf.parallel.memoized_cells` the Lab's one memo →
  ship → dispatch → store path;
- :mod:`repro.perf.memo` — a content-addressed, disk-persistent memo
  cache for cache simulations (:class:`~repro.perf.memo.SimMemo`; one
  binary ``.npz`` entry per key),
  keyed by hash of (line stream, geometry, prefetch flag);
  stack-distance histograms get their own coarser keys
  (:func:`~repro.perf.memo.histogram_key`: stream + ``n_sets`` only),
  so one entry answers a whole associativity family; locality-model
  analysis artifacts (w-affinity coverage tables, TRGs) are memoized
  under :data:`~repro.perf.memo.ANALYSIS_SCHEMA` keys
  (:func:`~repro.perf.memo.affinity_key`,
  :func:`~repro.perf.memo.trg_key`: symbol stream + model parameters);
- :mod:`repro.perf.store` — a zero-copy, content-addressed trace store
  (:class:`~repro.perf.store.TraceStore`): int64 streams persist as
  mmap-backed ``.npy`` entries keyed by :func:`~repro.perf.store.trace_digest`
  (the same digest every memo key consumes), so cell dispatches ship
  ~100-byte :class:`~repro.perf.store.StoreRef` descriptors instead of
  pickled arrays and workers attach with ``np.memmap`` reads; the Lab
  also keeps each interpreter run's trace there under its recipe, so a
  warm run never re-interprets a program;
- :mod:`repro.perf.telemetry` — per-stage wall time, simulator
  throughput, and memo hit rates aggregated into ``BENCH_perf.json``
  (:class:`~repro.perf.telemetry.Telemetry`), plus the journal-parity
  oracle used by the CI benchmark smoke job
  (``python -m repro.perf compare-journals``).

Determinism is the contract: every knob here trades wall-clock time,
never results — enforced by ``tests/perf/``.
"""

from .backends import KernelBackend, resolve_backend
from .memo import (
    ANALYSIS_SCHEMA,
    SimMemo,
    affinity_key,
    analysis_key,
    histogram_key,
    memo_key,
    trg_key,
)
from .parallel import CellPool, memoized_cells, rebuild_error
from .store import StoreRef, TraceStore, trace_digest
from .telemetry import BENCH_SCHEMA, Telemetry, compare_journal_outcomes

__all__ = [
    "ANALYSIS_SCHEMA",
    "BENCH_SCHEMA",
    "CellPool",
    "KernelBackend",
    "SimMemo",
    "StoreRef",
    "Telemetry",
    "TraceStore",
    "affinity_key",
    "analysis_key",
    "compare_journal_outcomes",
    "histogram_key",
    "memo_key",
    "memoized_cells",
    "rebuild_error",
    "resolve_backend",
    "trace_digest",
    "trg_key",
]
