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
  as a dict, retry notes, and the lab's telemetry delta.  The
  parent consumes payloads **in submission order**, so output, journal,
  and outcomes are identical to a serial run (modulo wall-clock fields).

* **cell level** — one table of cell kinds, :data:`CELL_KINDS`
  (``stats``, ``histogram``, ``curve`` and ``recipe``).  Each row names
  a module-level worker and, for a memoized kind, its memo key and the
  :class:`~repro.perf.memo.SimMemo` getter and putter.  :func:`dispatch`
  is the one fan-out of cells across a :class:`CellPool`, and
  :func:`memoized_cells` puts the memo and the trace store in front of
  it for stream cells: it is the one path
  :meth:`Lab.precompute_solo <repro.experiments.pipeline.Lab.precompute_solo>`,
  ``Lab.precompute_footprints`` and the
  :class:`~repro.compiler.driver.Driver` evaluation stage fan out through.

* **recipe cells** ship no stream at all.  A cell is
  ``(lab_config, program)``; the worker builds a serial lab from the
  config and makes the program's baseline footprint curve itself:
  build, ref-input run (published to the store, if any),
  declaration-order layout, fetch, curve.  ``Lab.precompute_footprints``
  sends the baseline curves of programs it has not prepared this way,
  so a cold fleet run prepares its programs in the workers and the
  parent holds no module.  The curve comes back with the cell's
  telemetry, which the parent folds into its own.

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
from typing import Any, Callable, Iterable, NamedTuple, Optional

import numpy as np

from ..cache.fastsim import DistanceHistogram
from ..cache.stats import CacheStats
from ..locality.footprint import FootprintCurve
from ..robust.errors import (
    ArtifactError,
    ProfileError,
    ReproError,
    SimulationError,
    WorkerCrashError,
    WorkerHangError,
    error_context,
)
from .memo import histogram_key, memo_key
from .store import StoreRef, TraceStore, trace_digest
from .telemetry import delta

__all__ = [
    "CELL_KINDS",
    "CellKind",
    "CellPool",
    "curve_cells",
    "dispatch",
    "memoized_cells",
    "rebuild_error",
]

#: the per-process Lab of an experiment worker (set by the initializer).
_WORKER_LAB = None

#: the per-process TraceStore cell kernels resolve StoreRefs against.
#: Set by the cell-worker initializer; in the parent it is (re)pointed at
#: the pool's store on every map, so the serial degradation path resolves
#: the exact same refs.
_CELL_STORE: Optional[TraceStore] = None

#: the per-process KernelBackend cell kernels run on.  Set by the
#: cell-worker initializer from the parent's requested tier name, so
#: workers run the tier the pool was asked for.  ``None`` means "not
#: resolved yet"; :func:`_cell_backend` then picks the default tier.
_CELL_BACKEND = None


def _cell_backend():
    """This process's resolved kernel backend (the default tier if unset)."""
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
    # A worker lab lives across tasks; ship the per-task telemetry *delta*
    # so the parent can sum payloads without double counting.
    before = lab.snapshot()
    outcome, notes = attempt_experiment(
        lab, exp_id, retries=retries, inject_fault=inject_fault, policy=policy
    )
    error = outcome.error
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
        "telemetry": delta(lab.snapshot(), before),
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
    _CELL_BACKEND = resolve_backend(backend_name)


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
    page-table duplication) on *every* fan-out.  A ``CellPool`` is
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
        self._backend = resolve_backend(kernel_backend)
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

    def __enter__(self) -> "CellPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _stats_cell(cell: tuple) -> CacheStats:
    from ..cache.setassoc import simulate

    lines, cfg, prefetch = cell
    return simulate(_resolve_stream(lines), cfg, prefetch=prefetch)


def _stats_key(src, cfg, prefetch: bool) -> str:
    return memo_key(src, cfg, prefetch=prefetch)


def _histogram_cell(cell: tuple) -> DistanceHistogram:
    lines, n_sets = cell
    return _cell_backend().histogram(_resolve_stream(lines), n_sets)


def _curve_cell(cell: tuple) -> FootprintCurve:
    from ..locality.footprint import footprint_curve

    (lines,) = cell
    return footprint_curve(_resolve_stream(lines))


def _recipe_cell(cell: tuple) -> tuple[FootprintCurve, dict]:
    """Worker body of one recipe cell: a serial lab built from the
    parent's config, on its own view of this process's store (so its
    counters are this cell's alone), makes the program's baseline curve;
    its telemetry travels with the curve."""
    from ..experiments.pipeline import BASELINE, Lab
    from ..locality.footprint import footprint_curve

    config, name = cell
    store = TraceStore(_CELL_STORE.root) if _CELL_STORE is not None else None
    lab = Lab(**config, store=store)
    # The serial path (Lab.footprint) makes the curve in this context.
    with error_context("compose", program=name, layout=BASELINE):
        curve = footprint_curve(lab.lines(name, BASELINE))
    return curve, lab.snapshot()


class CellKind(NamedTuple):
    """One row of :data:`CELL_KINDS`: how a cell of one kind is computed
    and, for a memoized kind, where its result is kept.

    ``key`` maps ``(stream or its digest, *params)`` to the memo key;
    ``get`` and ``put`` name the :class:`~repro.perf.memo.SimMemo`
    methods that read and write it.  The methods are looked up by name
    at call time, so a wrapped method (the traced benchmark run times
    them) is the one that runs.
    """

    worker: Callable[[tuple], Any]
    key: Optional[Callable[..., str]] = None
    get: str = ""
    put: str = ""


#: every kind of cell the pool computes.  ``stats``: ``(lines, cfg,
#: prefetch)`` -> :class:`~repro.cache.stats.CacheStats` of the
#: event-driven simulator.  ``histogram``: ``(lines, n_sets)`` ->
#: :class:`~repro.cache.fastsim.DistanceHistogram`, which answers every
#: associativity of the geometry family.  ``curve``: ``(lines,)`` ->
#: :class:`~repro.locality.footprint.FootprintCurve`; the Lab keys and
#: stores curves itself (``Lab._curve_lookup``), so the row has no memo.
#: ``recipe``: ``(lab_config, program)`` -> the program's baseline curve
#: and the telemetry of the worker lab that built, instrumented, laid out
#: and fetched it; no stream is shipped and nothing is hashed.  ``lines``
#: is the stream or its :class:`~repro.perf.store.StoreRef`.  Every
#: worker is pure, so a result is bit-identical wherever it runs.
CELL_KINDS: dict[str, CellKind] = {
    "stats": CellKind(_stats_cell, _stats_key, "get", "put"),
    "histogram": CellKind(_histogram_cell, histogram_key, "get_histogram", "put_histogram"),
    "curve": CellKind(_curve_cell),
    "recipe": CellKind(_recipe_cell),
}


def curve_cells(
    cells: list[tuple], *, pool: Optional[CellPool] = None
) -> list[FootprintCurve]:
    """Compute independent all-window footprint curves, possibly in parallel.

    The one per-kind fan-out left beside :func:`dispatch`: stream-curve
    cells are mapped through it, called by name, because the traced
    benchmark run wraps it to count curve passes.  Each cell is
    ``(lines,)`` as in the ``curve`` row of :data:`CELL_KINDS`; without
    a ``pool`` the cells run serially in this process.  Curves cross the
    process boundary pickled, raw ``float64`` included, so a fanned-out
    curve is bit-identical to a serial
    :func:`repro.locality.footprint.footprint_curve` call (the fleet
    composition parity gate depends on it).
    """
    if pool is None:
        return [_curve_cell(c) for c in cells]
    return pool.map(_curve_cell, cells)


def dispatch(
    kind: str, cells: list, *, pool: Callable[[], CellPool], counters: dict
) -> list:
    """Compute ``cells`` of one :data:`CELL_KINDS` row in one fan-out.

    ``pool()`` is called only when there is a cell to compute; the
    fan-out is counted in ``counters`` (``pool_fanouts``, and
    ``pool_reuses`` when it found warm workers).  Results are
    positionally aligned with ``cells``; a worker's typed error (say a
    :class:`~repro.robust.errors.ProfileError` from a recipe whose
    program fails to build) is raised here as the serial path raises it.
    """
    if not cells:
        return []
    cell_pool = pool()
    reuses = cell_pool.reuses
    if kind == "curve":
        # By name: the traced benchmark run counts curve passes here.
        results = curve_cells(cells, pool=cell_pool)
    else:
        results = cell_pool.map(CELL_KINDS[kind].worker, cells)
    counters["pool_fanouts"] += 1
    counters["pool_reuses"] += cell_pool.reuses - reuses
    return results


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

    ``kind`` is a stream row of :data:`CELL_KINDS` (``"stats"``,
    ``"histogram"`` or ``"curve"``) and each cell is ``(lines, *params)``
    with ``lines`` the stream array.  ``cells`` may be lazy: each is
    consumed right before its lookup.

    Each stream is hashed at most once: with a ``store`` its content
    digest keys both the memo entry and the store entry.  Memo hits (a
    row without a memo part has none) are answered in place.  Each miss
    ships its stream as a :class:`~repro.perf.store.StoreRef` (with a
    store) or the array, counting ``store_bytes_shipped`` /
    ``store_bytes_mapped`` in ``counters``.  The misses go out in one
    :func:`dispatch` and their results back into ``memo``.

    Returns the results, aligned with ``cells`` and bit-identical to
    serial un-memoized computation, and the indices of the cells that
    were computed fresh.
    """
    row = CELL_KINDS[kind]
    key_of = row.key if memo is not None else None
    results: list = []
    missed: list[int] = []
    keys: list[Optional[str]] = []
    tasks: list[tuple] = []
    for i, (stream, *params) in enumerate(cells):
        src = trace_digest(stream) if store is not None else stream
        key = key_of(src, *params) if key_of is not None else None
        results.append(None if key is None else getattr(memo, row.get)(key))
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
    fresh = dispatch(kind, tasks, pool=pool, counters=counters)
    for i, key, value in zip(missed, keys, fresh):
        if key is not None:
            getattr(memo, row.put)(key, value)
        results[i] = value
    return results, missed
