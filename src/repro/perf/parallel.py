"""Process-pool execution of experiments and simulation cells.

Two fan-out layers, matching the structure of the evaluation:

* **experiment level** — the worker side of
  :class:`~repro.robust.supervisor.SupervisedPool`, which runs whole
  experiment drivers in worker processes.  Each worker builds its own
  :class:`~repro.experiments.pipeline.Lab` from the parent lab's
  configuration (labs hold megabytes of memoized traces and are not
  shareable), executes the same per-experiment attempt loop as the
  serial runner, and ships back a picklable payload: the
  :class:`~repro.experiments.report.ExperimentResult`, the typed error
  as a dict, retry notes, and the lab's stage timings/counters.  The
  parent consumes payloads **in submission order**, so output, journal,
  and outcomes are identical to a serial run (modulo wall-clock fields).

* **cell level** — :func:`simulate_cells` fans independent
  (line stream, cache config, prefetch) simulation cells across a
  :class:`CellPool` (or runs them serially without one).
  :func:`histogram_cells` is the kernel-path counterpart: independent
  (line stream, n_sets) cells, each producing a
  :class:`~repro.cache.fastsim.DistanceHistogram` that answers every
  associativity of the geometry family at once; :func:`curve_cells`
  computes footprint curves.  :func:`memoized_cells` puts the memo and
  the trace store in front of all three: it is the one path
  :meth:`Lab.precompute_solo <repro.experiments.pipeline.Lab.precompute_solo>`,
  ``Lab.precompute_footprints`` and the
  :class:`~repro.compiler.driver.Driver` evaluation stage fan out through.

Cell traffic is zero-copy when a :class:`~repro.perf.store.TraceStore`
is attached: a cell's stream argument may be a
:class:`~repro.perf.store.StoreRef` descriptor instead of the pickled
array, and workers resolve it against the store with an ``np.memmap``
read.  :class:`CellPool` keeps the workers alive across fan-out calls
(one persistent pool per Lab/Driver instead of a throwaway
``ProcessPoolExecutor`` per map) and submits cells in batches to
amortize IPC.

Every simulation here is deterministic (seeded noise, content-addressed
inputs), so distributing work across processes cannot change any result
— the parity tests in ``tests/perf/`` and the CI benchmark smoke job
enforce exactly that.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Optional

import numpy as np

from ..cache.fastsim import DistanceHistogram
from ..cache.stats import CacheStats
from ..robust.errors import (
    ArtifactError,
    ProfileError,
    ReproError,
    SimulationError,
    WorkerCrashError,
    WorkerHangError,
)
from .memo import curve_key, histogram_key, memo_key
from .store import StoreRef, TraceStore, trace_digest

__all__ = [
    "CellPool",
    "curve_cells",
    "histogram_cells",
    "memoized_cells",
    "rebuild_error",
    "simulate_cells",
]

#: the per-process Lab of an experiment worker (set by the initializer).
_WORKER_LAB = None

#: the per-process TraceStore cell kernels resolve StoreRefs against.
#: Set by the cell-worker initializer; in the parent it is (re)pointed at
#: the pool's store on every map, so the serial degradation path resolves
#: the exact same refs.
_CELL_STORE: Optional[TraceStore] = None

#: the per-process KernelBackend cell kernels run on.  Set by the
#: cell-worker initializer from the *requested* tier name with
#: ``strict=False`` — each worker resolves against its own environment,
#: so a ``compiled`` parent mixed with a numba-less worker degrades to
#: ``numpy`` with bit-identical results.  ``None`` means "not resolved
#: yet"; :func:`_cell_backend` then picks the fastest available tier.
_CELL_BACKEND = None


def _cell_backend():
    """This process's resolved kernel backend (fastest tier by default)."""
    global _CELL_BACKEND
    if _CELL_BACKEND is None:
        from .backends import resolve_backend

        _CELL_BACKEND = resolve_backend(None)
    return _CELL_BACKEND


def _mp_context():
    """Prefer fork (fast, POSIX) and fall back to spawn portably."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# -- experiment-level fan-out -------------------------------------------------

def _init_experiment_worker(
    lab_config: dict,
    memo_dir: Optional[str],
    breaker_config: Optional[dict] = None,
    store_dir: Optional[str] = None,
) -> None:
    from ..experiments.pipeline import Lab
    from .memo import SimMemo

    global _WORKER_LAB
    lab_config = dict(lab_config)
    lab_config["jobs"] = 1  # no nested pools inside a worker
    if memo_dir is not None:
        if breaker_config:
            from ..robust.supervisor import CircuitBreaker

            lab_config["memo"] = SimMemo(
                memo_dir, breaker=CircuitBreaker(**breaker_config)
            )
        else:
            lab_config["memo"] = SimMemo(memo_dir)
    if store_dir is not None:
        lab_config["store"] = TraceStore(store_dir)
    _WORKER_LAB = Lab(**lab_config)


def _experiment_task(
    exp_id: str, retries: int, inject_fault: Optional[str], policy=None
) -> dict:
    """Run one experiment in the worker; return a picklable payload."""
    from ..experiments.runner import attempt_experiment

    lab = _WORKER_LAB
    assert lab is not None, "worker pool used without initializer"
    # A worker lab lives across tasks; ship per-task *deltas* so the
    # parent can sum payloads without double counting.
    counters_before = dict(lab.counters)
    memo_before = lab.memo.counters() if lab.memo is not None else None
    store_before = lab.store.counters() if lab.store is not None else None
    outcome, notes = attempt_experiment(
        lab, exp_id, retries=retries, inject_fault=inject_fault, policy=policy
    )
    error = outcome.error
    memo_delta = None
    if lab.memo is not None:
        after = lab.memo.counters()
        memo_delta = {
            k: after[k] - (memo_before or {}).get(k, 0)
            for k in after
            if k != "hit_rate"
        }
    store_delta = None
    if lab.store is not None:
        after = lab.store.counters()
        store_delta = {
            k: after[k] - (store_before or {}).get(k, 0) for k in after
        }
    return {
        "exp_id": outcome.exp_id,
        "status": outcome.status,
        "elapsed_s": outcome.elapsed_s,
        "attempts": outcome.attempts,
        "result": outcome.result,
        "error": None
        if error is None
        else {
            "type": type(error).__name__,
            "dict": error.to_dict(),
            "rendered": str(error),
        },
        "notes": notes,
        "timings": outcome.timings,
        "counters": {
            k: lab.counters[k] - counters_before.get(k, 0) for k in lab.counters
        },
        "memo": memo_delta,
        "store": store_delta,
    }


_ERROR_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ReproError,
        ProfileError,
        SimulationError,
        ArtifactError,
        WorkerCrashError,
        WorkerHangError,
    )
}


def rebuild_error(payload: dict) -> ReproError:
    """Reconstruct a worker's typed error in the parent process.

    The subclass and machine-readable context survive; the original
    ``cause`` exception does not cross the process boundary, so its
    rendered form is preserved verbatim via the exception message.
    """
    cls = _ERROR_TYPES.get(payload.get("type", ""), SimulationError)
    raw = dict(payload.get("dict") or {})
    raw.pop("type", None)
    message = raw.pop("message", "experiment failed")
    cause_repr = raw.pop("cause", None)
    err = cls(message, **raw)
    if cause_repr is not None:
        err.context.setdefault("cause", cause_repr)
    # Preserve the worker-side rendering exactly (parity with serial output).
    err.args = (payload.get("rendered", str(err)),)
    return err


# -- cell-level fan-out -------------------------------------------------------

def _init_cell_worker(
    store_dir: Optional[str], backend_name: Optional[str] = None
) -> None:
    """Cell-worker initializer: attach to the trace store and resolve
    this process's kernel backend from the requested tier name."""
    from .backends import resolve_backend

    global _CELL_STORE, _CELL_BACKEND
    _CELL_STORE = TraceStore(store_dir) if store_dir is not None else None
    _CELL_BACKEND = resolve_backend(backend_name, strict=False)


def _resolve_stream(trace) -> np.ndarray:
    """A cell's stream argument: a pickled array, or a StoreRef resolved
    against the attached store with a zero-copy memmap read."""
    if isinstance(trace, StoreRef):
        store = _CELL_STORE
        if store is None:
            raise SimulationError(
                f"cell carries store ref {trace.key[:12]}… but this process "
                "has no trace store attached",
                stage="simulate",
                defect="no trace store",
            )
        try:
            return store.resolve(trace)
        except KeyError:
            raise SimulationError(
                f"trace store entry {trace.key[:12]}… is missing or corrupt",
                stage="simulate",
                defect="store entry lost",
            ) from None
    return np.asarray(trace)


def _run_batch(fn: Callable[[Any], Any], cells: list) -> list:
    """Worker body of one batched dispatch (amortizes per-task IPC)."""
    return [fn(c) for c in cells]


class CellPool:
    """A persistent pool of cell-kernel workers, reused across fan-outs.

    The throwaway-pool model paid process startup (and, via ``fork``,
    page-table duplication) on *every* ``simulate_cells`` /
    ``histogram_cells`` / ``curve_cells`` call.  A ``CellPool`` is
    owned by its Lab/Driver, spawns workers on first use, keeps them
    alive across calls (``maps`` counts non-empty fan-outs, ``reuses``
    the ones that found warm workers), and
    submits cells in batches of roughly ``2 * jobs`` per map so the IPC
    cost scales with worker count, not cell count.

    Fault model: a pool broken mid-map (a worker OOM-killed or
    segfaulted) loses only the batches that had not completed — finished
    futures keep their results, and only the lost cells are recomputed
    serially in the parent (``recomputed`` counts them).  The dead
    executor is discarded and the next map spawns a fresh one.  Cell
    kernels are pure, so none of this can change a result.
    """

    def __init__(
        self,
        jobs: int,
        *,
        store: Optional[TraceStore] = None,
        kernel_backend: Optional[str] = None,
    ):
        from .backends import resolve_backend

        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._store = store
        #: requested tier name (ships to worker initializers verbatim).
        self._backend_name = kernel_backend
        #: parent-side resolution, for the serial/recompute paths.
        self._backend = resolve_backend(kernel_backend, strict=False)
        self._executor: Optional[ProcessPoolExecutor] = None
        self.maps = 0
        self.reuses = 0
        self.batches = 0
        self.broken_pools = 0
        self.recomputed = 0

    @property
    def store(self) -> Optional[TraceStore]:
        return self._store

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            store_dir = str(self._store.root) if self._store is not None else None
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_mp_context(),
                initializer=_init_cell_worker,
                initargs=(store_dir, self._backend_name),
            )
        else:
            self.reuses += 1
        return self._executor

    def map(self, fn: Callable[[Any], Any], cells: list) -> list:
        """Map ``fn`` over ``cells``; results positionally aligned and
        bit-identical to ``[fn(c) for c in cells]``."""
        # Point the parent-side resolver at our store and backend so the
        # serial paths below handle cells exactly like workers do.
        global _CELL_STORE, _CELL_BACKEND
        if self._store is not None:
            _CELL_STORE = self._store
        _CELL_BACKEND = self._backend
        n = len(cells)
        if n == 0:
            return []
        self.maps += 1
        if self.jobs <= 1 or n == 1:
            return [fn(c) for c in cells]
        executor = self._ensure_executor()
        per_batch = max(1, -(-n // (self.jobs * 2)))
        results: list = [None] * n
        done = [False] * n
        broken = False
        futures: list[tuple[int, Future]] = []
        try:
            for start in range(0, n, per_batch):
                futures.append(
                    (
                        start,
                        executor.submit(_run_batch, fn, cells[start:start + per_batch]),
                    )
                )
                self.batches += 1
        except BrokenProcessPool:
            broken = True
        for start, fut in futures:
            try:
                batch_out = fut.result()
            except BrokenProcessPool:
                broken = True
                continue
            for j, value in enumerate(batch_out):
                results[start + j] = value
                done[start + j] = True
        if broken:
            self.broken_pools += 1
            self.shutdown()
        for i, cell in enumerate(cells):
            if not done[i]:
                results[i] = fn(cell)
                self.recomputed += 1
        return results

    def shutdown(self) -> None:
        """Release the workers (the pool respawns them on next use)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def counters(self) -> dict[str, int]:
        return {
            "maps": self.maps,
            "reuses": self.reuses,
            "batches": self.batches,
            "broken_pools": self.broken_pools,
            "recomputed": self.recomputed,
        }

    def __enter__(self) -> "CellPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _map_cells(
    fn: Callable[[Any], Any], cells: list, pool: Optional[CellPool]
) -> list:
    """One fan-out: through the persistent pool when one is given, else
    serially in this process."""
    if pool is not None:
        return pool.map(fn, cells)
    return [fn(c) for c in cells]


def _simulate_cell(cell: tuple) -> tuple[int, int, int, int]:
    from ..cache.setassoc import simulate

    lines, cfg, prefetch = cell
    stats = simulate(_resolve_stream(lines), cfg, prefetch=prefetch)
    return (stats.accesses, stats.misses, stats.prefetches, stats.prefetch_hits)


def simulate_cells(
    cells: list[tuple], *, pool: Optional[CellPool] = None
) -> list[CacheStats]:
    """Simulate independent (lines, cfg, prefetch) cells, possibly in parallel.

    ``lines`` may be an array or a :class:`~repro.perf.store.StoreRef`.
    Results are positionally aligned with ``cells`` and bit-identical to
    serial :func:`repro.cache.setassoc.simulate` calls — the cells share
    no state, so execution order cannot matter.  Without a ``pool`` the
    cells run serially in this process.
    """
    raw = _map_cells(_simulate_cell, cells, pool)
    return [
        CacheStats(accesses=a, misses=m, prefetches=p, prefetch_hits=h)
        for (a, m, p, h) in raw
    ]


def _histogram_cell(cell: tuple) -> dict:
    lines, n_sets = cell
    return _cell_backend().histogram(_resolve_stream(lines), n_sets).to_dict()


def _curve_cell(cell: tuple) -> dict:
    from ..locality.footprint import footprint_curve

    (lines,) = cell
    return footprint_curve(_resolve_stream(lines)).to_dict()


def curve_cells(
    cells: list[tuple], *, pool: Optional[CellPool] = None
) -> list["FootprintCurve"]:
    """Compute independent all-window footprint curves, possibly in parallel.

    Each cell is ``(lines,)`` with ``lines`` the stream or its
    :class:`~repro.perf.store.StoreRef`.  Curves cross the process
    boundary as their dict form — JSON-exact floats, so a fanned-out
    curve is bit-identical to a serial
    :func:`repro.locality.footprint.footprint_curve` call (the fleet
    composition parity gate depends on it).
    """
    from ..locality.footprint import FootprintCurve

    raw = _map_cells(_curve_cell, cells, pool)
    return [FootprintCurve.from_dict(r) for r in raw]


def histogram_cells(
    cells: list[tuple], *, pool: Optional[CellPool] = None
) -> list[DistanceHistogram]:
    """Compute independent (lines, n_sets) stack-distance histograms.

    The kernel-path analogue of :func:`simulate_cells`: results are
    positionally aligned with ``cells`` and identical to serial
    :func:`repro.cache.fastsim.stack_distance_histogram` calls.
    Histograms cross the process boundary as their dict form (plain ints,
    cheap relative to the streams — which, with a store attached, do not
    cross at all).
    """
    raw = _map_cells(_histogram_cell, cells, pool)
    return [DistanceHistogram.from_dict(r) for r in raw]


#: kind -> (memo key of (stream or its digest, *params), SimMemo getter,
#: SimMemo putter, fan-out).  Methods and fan-outs are looked up by name
#: at call time, so a wrapped module attribute or method (the traced
#: benchmark run times them) is the one that runs.
_MEMO_KINDS: dict[str, tuple[Callable[..., str], str, str, str]] = {
    "stats": (
        lambda src, cfg, prefetch: memo_key(src, cfg, prefetch=prefetch),
        "get",
        "put",
        "simulate_cells",
    ),
    "histogram": (histogram_key, "get_histogram", "put_histogram", "histogram_cells"),
    "curve": (curve_key, "get_curve", "put_curve", "curve_cells"),
}


def memoized_cells(
    kind: str,
    cells: Iterable[tuple],
    *,
    memo,
    store: Optional[TraceStore],
    pool: Callable[[], CellPool],
    counters: dict,
) -> tuple[list, list[int]]:
    """The one memoized fan-out of stream cells: memo, ship, dispatch, store.

    ``kind`` names the cell computation and its cell shape: ``"stats"``
    (``(lines, cfg, prefetch)``, :func:`simulate_cells`), ``"histogram"``
    (``(lines, n_sets)``, :func:`histogram_cells`) or ``"curve"``
    (``(lines,)``, :func:`curve_cells`), with ``lines`` the stream array.
    ``cells`` may be lazy: each is consumed right before its lookup.

    Each stream is hashed at most once: with a ``store`` its content
    digest keys both the memo entry and the store entry.  Memo hits are
    answered in place.  Each miss ships its stream as a
    :class:`~repro.perf.store.StoreRef` (with a store) or the array,
    counting ``store_bytes_shipped`` / ``store_bytes_mapped`` in
    ``counters``.  Only when some cell missed does ``pool()`` get called
    and the misses fan out in one dispatch (counted in ``pool_fanouts``
    and ``pool_reuses``); their results go back into ``memo``.

    Returns the results, aligned with ``cells`` and bit-identical to
    serial un-memoized computation, and the indices of the cells that
    were computed fresh.
    """
    key_of, getter, putter, fanout = _MEMO_KINDS[kind]
    results: list = []
    missed: list[int] = []
    keys: list[Optional[str]] = []
    tasks: list[tuple] = []
    for i, (stream, *params) in enumerate(cells):
        src = trace_digest(stream) if store is not None else stream
        key = key_of(src, *params) if memo is not None else None
        results.append(None if key is None else getattr(memo, getter)(key))
        if results[-1] is not None:
            continue
        if store is not None:
            shipped = store.ref(stream, key=src)
            counters["store_bytes_shipped"] += len(pickle.dumps(shipped))
            counters["store_bytes_mapped"] += shipped.nbytes
        else:
            shipped = stream
            counters["store_bytes_shipped"] += int(np.asarray(stream).nbytes)
        tasks.append((shipped, *params))
        missed.append(i)
        keys.append(key)
    if tasks:
        cell_pool = pool()
        reuses = cell_pool.reuses
        fresh = globals()[fanout](tasks, pool=cell_pool)
        counters["pool_fanouts"] += 1
        counters["pool_reuses"] += cell_pool.reuses - reuses
        for i, key, value in zip(missed, keys, fresh):
            if memo is not None:
                getattr(memo, putter)(key, value)
            results[i] = value
    return results, missed
