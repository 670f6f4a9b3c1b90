"""Self-healing execution runtime: supervised workers, typed retries, breaker.

The batch runner's next life is a long-lived layout service, and a
long-lived engine must survive the three failure modes a plain process
pool cannot: a worker that *dies* (OOM, SIGKILL), a worker that *hangs*
(deadlock, runaway input), and a storage tier that *degrades* (flaky
disk under the memo cache).  This module supplies the three matching
mechanisms:

* :class:`SupervisedPool` — a worker pool built on raw
  ``multiprocessing`` processes (an executor cannot kill an individual
  worker) with per-worker heartbeats, a per-task deadline, automatic
  worker replacement under a bounded respawn budget, and bounded
  re-dispatch of tasks interrupted by infrastructure faults.  When the
  budget is exhausted the pool resolves the remaining work as *failed*
  instead of deadlocking — a graceful partial-result exit.

* :class:`RetryPolicy` — a declarative retry schedule (exponential
  backoff with decorrelated jitter, deterministic per ``(seed, key)``)
  that consults :func:`repro.robust.errors.fault_class` so only
  :data:`~repro.robust.errors.TRANSIENT` failures are retried;
  :data:`~repro.robust.errors.PERMANENT` ones (bad input, broken
  invariants) fail fast instead of burning attempts on a deterministic
  failure.

* :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine.  :class:`repro.perf.memo.SimMemo` wraps its disk tier in one:
  repeated I/O failures trip it, lookups degrade to the in-process memo
  (correctness preserved — a memo miss is always just a recomputation),
  and a timer half-opens it for a probe.

Determinism note: supervision never changes *results*.  A killed or hung
worker's task is re-dispatched to a fresh worker and recomputed from the
same content-addressed inputs, so the journal outcomes of a chaos run
match the clean run — the soak gate in CI asserts exactly that.

This module keeps its imports to the standard library plus
:mod:`repro.robust.errors`; everything heavier (the Lab, the memo, the
experiment registry) is imported lazily inside worker/functions so the
robustness layer stays a leaf the rest of the tree can depend on.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import (
    TRANSIENT,
    ReproError,
    WorkerCrashError,
    WorkerHangError,
    fault_class,
)

__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "SupervisedPool",
    "SupervisorStats",
]

#: seconds between heartbeat increments inside a worker.
_BEAT_INTERVAL_S = 0.05

#: supervisor sweep interval (result collection, deadlines, dispatch).
_POLL_S = 0.02


# -- retry policy -------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Declarative, taxonomy-aware retry schedule.

    ``max_retries`` grants that many *extra* attempts, but only for
    failures :func:`~repro.robust.errors.fault_class` calls transient —
    a ``ProfileError`` fails on attempt one no matter the budget.
    Backoff is exponential with decorrelated jitter (the AWS variant):
    ``d_{i} = min(cap_s, uniform(base_s, 3 * d_{i-1}))`` with
    ``d_0 = base_s``, which spreads concurrent retriers apart instead of
    letting them stampede in lockstep.  The sequence is deterministic
    per ``(seed, key)`` — seeded via SHA-256, not the salted builtin
    ``hash()`` — so two runs of the same suite sleep identically.
    """

    max_retries: int = 0
    base_s: float = 0.05
    cap_s: float = 30.0
    seed: int = 0

    def classify(self, err: BaseException) -> str:
        """The fault class this policy assigns to ``err``."""
        return fault_class(err)

    def should_retry(self, err: BaseException, attempt: int) -> bool:
        """True iff attempt number ``attempt`` (1-based) may be followed
        by another one for failure ``err``."""
        return attempt <= self.max_retries and fault_class(err) == TRANSIENT

    def schedule(self, key: str, attempts: Optional[int] = None) -> list[float]:
        """The first ``attempts`` backoff delays (seconds) for ``key``.

        Every delay lies in ``[base_s, cap_s]`` and within the
        decorrelated envelope ``d_i <= min(cap_s, 3 * d_{i-1})``.
        """
        if attempts is None:
            attempts = self.max_retries
        digest = hashlib.sha256(f"{self.seed}|{key}".encode()).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        delays: list[float] = []
        prev = self.base_s
        for _ in range(max(0, attempts)):
            prev = min(self.cap_s, rng.uniform(self.base_s, max(self.base_s, 3 * prev)))
            delays.append(prev)
        return delays

    def delay_s(self, key: str, attempt: int) -> float:
        """Backoff delay after failed attempt number ``attempt`` (1-based)."""
        sched = self.schedule(key, attempt)
        return sched[-1] if sched else 0.0

    def sleep_before_retry(
        self, key: str, attempt: int, *, sleep: Callable[[float], None] = time.sleep
    ) -> float:
        """Sleep the scheduled backoff; returns the delay slept."""
        delay = self.delay_s(key, attempt)
        if delay > 0:
            sleep(delay)
        return delay


# -- circuit breaker ----------------------------------------------------------

class CircuitBreaker:
    """Closed / open / half-open breaker for a flaky dependency tier.

    * **closed** — operations flow; ``failure_threshold`` *consecutive*
      failures trip it open.
    * **open** — :meth:`allow` answers False (callers degrade) until
      ``reset_after_s`` seconds pass on the injected ``clock``.
    * **half-open** — one probe is allowed through: success closes the
      breaker (counted in :attr:`recoveries`), failure re-opens it
      immediately.

    ``trips`` counts every transition into *open*, including half-open
    probes that fail.  Thread-safe; the clock is injectable so tests can
    step time instead of sleeping.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_after_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_after_s < 0:
            raise ValueError("reset_after_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._consecutive = 0
        self.trips = 0
        self.recoveries = 0

    def _state_locked(self) -> str:
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.reset_after_s
        ):
            self._state = self.HALF_OPEN
        return self._state

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def allow(self) -> bool:
        """May an operation go through right now?"""
        with self._lock:
            return self._state_locked() != self.OPEN

    def record_success(self) -> None:
        with self._lock:
            if self._state_locked() == self.HALF_OPEN:
                self.recoveries += 1
            self._state = self.CLOSED
            self._consecutive = 0

    def record_failure(self) -> None:
        with self._lock:
            state = self._state_locked()
            self._consecutive += 1
            if state == self.HALF_OPEN or self._consecutive >= self.failure_threshold:
                self.trips += 1
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._consecutive = 0

    def counters(self) -> dict[str, Any]:
        return {"state": self.state, "trips": self.trips, "recoveries": self.recoveries}


# -- the supervised pool ------------------------------------------------------

@dataclass
class SupervisorStats:
    """Lifetime counters of one :class:`SupervisedPool`."""

    workers_spawned: int = 0
    workers_replaced: int = 0
    worker_crashes: int = 0
    worker_hangs: int = 0
    redispatches: int = 0
    #: True once the respawn budget ran out and remaining work was
    #: resolved as failed (the graceful partial-result exit).
    partial: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "workers_spawned": self.workers_spawned,
            "workers_replaced": self.workers_replaced,
            "worker_crashes": self.worker_crashes,
            "worker_hangs": self.worker_hangs,
            "redispatches": self.redispatches,
            "partial": self.partial,
        }


class _Task:
    __slots__ = ("exp_id", "retries", "inject_fault", "policy", "future", "dispatches")

    def __init__(
        self,
        exp_id: str,
        retries: int,
        inject_fault: Optional[str],
        policy: Optional[RetryPolicy],
    ):
        self.exp_id = exp_id
        self.retries = retries
        self.inject_fault = inject_fault
        self.policy = policy
        self.future: Future = Future()
        #: times this task has been handed to a worker (chaos directives
        #: attach only to the first dispatch, so re-runs are clean).
        self.dispatches = 0


class _WorkerSlot:
    __slots__ = ("process", "conn", "heartbeat", "last_beat", "last_beat_t", "task", "dispatched_t")

    def __init__(self, process, conn, heartbeat):
        self.process = process
        self.conn = conn
        self.heartbeat = heartbeat
        self.last_beat = -1
        self.last_beat_t = time.monotonic()
        self.task: Optional[_Task] = None
        self.dispatched_t = 0.0


def _worker_main(
    conn, heartbeat, lab_config, memo_dir, breaker_config, store_dir, chaos
) -> None:
    """Worker process body: beat, build a Lab, serve tasks off the pipe."""
    stop = threading.Event()

    def _beat() -> None:
        while not stop.is_set():
            with heartbeat.get_lock():
                heartbeat.value += 1
            time.sleep(_BEAT_INTERVAL_S)

    threading.Thread(target=_beat, daemon=True).start()

    if chaos is not None:
        from .faults import arm_chaos_worker

        arm_chaos_worker(chaos)

    from ..perf.parallel import _experiment_task, _init_experiment_worker

    _init_experiment_worker(
        lab_config, memo_dir, breaker_config=breaker_config, store_dir=store_dir
    )
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        exp_id, retries, inject_fault, policy, directive = msg
        if directive is not None:
            if directive[0] == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif directive[0] == "hang":
                time.sleep(float(directive[1]))
        payload = _experiment_task(exp_id, retries, inject_fault, policy=policy)
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            break
    stop.set()


def _failure_payload(exp_id: str, err: ReproError, *, attempts: int = 1) -> dict:
    """A parent-side payload shaped exactly like a worker's, for tasks
    the supervisor had to fail itself (crash/hang budget exhausted)."""
    return {
        "exp_id": exp_id,
        "status": "failed",
        "elapsed_s": 0.0,
        "attempts": attempts,
        "result": None,
        "error": {
            "type": type(err).__name__,
            "dict": err.to_dict(),
            "rendered": str(err),
        },
        "notes": [],
        "timings": {},
        "counters": {},
        "memo": None,
        "store": None,
    }


class SupervisedPool:
    """A supervised pool of experiment workers.

    Each worker owns a private Lab and a duplex pipe; a background
    supervisor thread collects results, watches heartbeats and per-task
    deadlines, kills hung workers, replaces dead ones within
    ``respawn_budget``, and re-dispatches interrupted tasks up to
    ``max_redispatch`` times.  Futures resolve to the same picklable
    payload dict :func:`repro.perf.parallel._experiment_task` produces,
    so the runner's consume-in-submission-order parity contract is
    unchanged.

    ``chaos`` (a :class:`repro.robust.faults.ChaosPlan`) arms the
    deterministic chaos harness: kill/hang directives attach to the
    *first* dispatch of the named experiments, and workers arm their
    memo I/O fault budget at startup.
    """

    def __init__(
        self,
        jobs: int,
        lab_config: dict,
        *,
        memo_dir: Optional[str] = None,
        hang_timeout_s: float = 300.0,
        respawn_budget: int = 4,
        max_redispatch: int = 2,
        breaker_config: Optional[dict] = None,
        store_dir: Optional[str] = None,
        chaos=None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if hang_timeout_s <= 0:
            raise ValueError("hang_timeout_s must be > 0")
        if respawn_budget < 0:
            raise ValueError("respawn_budget must be >= 0")
        from ..perf.parallel import _mp_context

        self._ctx = _mp_context()
        self._lab_config = dict(lab_config)
        self._memo_dir = memo_dir
        self._breaker_config = breaker_config
        self._store_dir = store_dir
        self._chaos = chaos
        self.hang_timeout_s = hang_timeout_s
        self.respawn_budget = respawn_budget
        self.max_redispatch = max_redispatch
        self.stats = SupervisorStats()
        self._lock = threading.Lock()
        self._pending: deque[_Task] = deque()
        self._workers: list[_WorkerSlot] = []
        self._shutdown = False
        self._wake = threading.Event()
        for _ in range(jobs):
            self._workers.append(self._spawn())
        self._thread = threading.Thread(
            target=self._supervise, name="repro-supervisor", daemon=True
        )
        self._thread.start()

    # -- public API --------------------------------------------------------

    def submit(
        self,
        exp_id: str,
        *,
        retries: int = 0,
        inject_fault: Optional[str] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> Future:
        task = _Task(exp_id, retries, inject_fault, policy)
        with self._lock:
            if self._shutdown:
                raise RuntimeError("pool is shut down")
            self._pending.append(task)
        self._wake.set()
        return task.future

    def shutdown(self, *, cancel: bool = False) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            pending = list(self._pending)
            self._pending.clear()
            workers = list(self._workers)
            self._workers.clear()
        self._wake.set()
        self._thread.join(timeout=5.0)
        for task in pending:
            task.future.cancel()
        for slot in workers:
            if slot.task is not None:
                slot.task.future.cancel()
            try:
                slot.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            slot.process.join(timeout=0.2 if cancel else 2.0)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=1.0)
            slot.conn.close()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        # Leftover queued work is always abandoned on exit (consumed
        # suites make this a no-op).
        self.shutdown(cancel=True)

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self) -> _WorkerSlot:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        heartbeat = self._ctx.Value("Q", 0)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                heartbeat,
                self._lab_config,
                self._memo_dir,
                self._breaker_config,
                self._store_dir,
                self._chaos,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.stats.workers_spawned += 1
        return _WorkerSlot(process, parent_conn, heartbeat)

    def _retire(self, slot: _WorkerSlot) -> None:
        if slot in self._workers:
            self._workers.remove(slot)
        if slot.process.is_alive():
            slot.process.kill()
        slot.process.join(timeout=1.0)
        try:
            slot.conn.close()
        except OSError:
            pass

    # -- the supervisor loop -----------------------------------------------

    def _supervise(self) -> None:
        while True:
            self._wake.wait(timeout=_POLL_S)
            self._wake.clear()
            with self._lock:
                if self._shutdown:
                    return
                self._step()

    def _step(self) -> None:
        now = time.monotonic()
        for slot in list(self._workers):
            # 1) finished results.
            if slot.task is not None and slot.conn.poll():
                try:
                    payload = slot.conn.recv()
                except (EOFError, OSError):
                    payload = None  # died mid-send; liveness check below.
                if payload is not None:
                    task, slot.task = slot.task, None
                    if not task.future.cancelled():
                        task.future.set_result(payload)
            # 2) liveness.
            if not slot.process.is_alive():
                self._handle_fault(slot, kind="crash", now=now)
                continue
            # 3) heartbeat stall (process alive but not being scheduled).
            beat = int(slot.heartbeat.value)
            if beat != slot.last_beat:
                slot.last_beat = beat
                slot.last_beat_t = now
            elif now - slot.last_beat_t > self.hang_timeout_s:
                self._handle_fault(slot, kind="stall", now=now)
                continue
            # 4) per-task deadline.
            if slot.task is not None and now - slot.dispatched_t > self.hang_timeout_s:
                self._handle_fault(slot, kind="hang", now=now)
        # 5) dispatch pending work onto idle workers.
        for slot in self._workers:
            if not self._pending:
                break
            if slot.task is None:
                self._dispatch(slot, self._pending.popleft())
        # 6) budget exhausted and nobody left to run: fail what remains.
        if not self._workers and self._pending:
            self._drain_partial()

    def _dispatch(self, slot: _WorkerSlot, task: _Task) -> None:
        directive = None
        if self._chaos is not None and task.dispatches == 0:
            if task.exp_id in self._chaos.kill_exp_ids:
                directive = ("kill",)
            elif task.exp_id in self._chaos.hang_exp_ids:
                directive = ("hang", self.hang_timeout_s * 4)
        task.dispatches += 1
        slot.task = task
        slot.dispatched_t = time.monotonic()
        try:
            slot.conn.send(
                (task.exp_id, task.retries, task.inject_fault, task.policy, directive)
            )
        except (BrokenPipeError, OSError):
            pass  # worker already dead; the next sweep redispatches.

    def _handle_fault(self, slot: _WorkerSlot, *, kind: str, now: float) -> None:
        task = slot.task
        slot.task = None
        self._retire(slot)
        if kind == "crash":
            self.stats.worker_crashes += 1
            err_cls: type = WorkerCrashError
            what = "died"
        else:
            self.stats.worker_hangs += 1
            err_cls = WorkerHangError
            what = "stopped heartbeating" if kind == "stall" else (
                f"exceeded the {self.hang_timeout_s:.0f}s task deadline"
            )
        if task is not None and not task.future.cancelled():
            if task.dispatches <= self.max_redispatch:
                self.stats.redispatches += 1
                self._pending.appendleft(task)
            else:
                err = err_cls(
                    f"worker running {task.exp_id!r} {what} "
                    f"(after {task.dispatches} dispatch(es))",
                    stage="experiment",
                    defect=f"worker {kind}",
                )
                task.future.set_result(
                    _failure_payload(task.exp_id, err, attempts=task.dispatches)
                )
        if self.stats.workers_replaced < self.respawn_budget:
            self.stats.workers_replaced += 1
            self._workers.append(self._spawn())
        elif not self._workers:
            self._drain_partial()

    def _drain_partial(self) -> None:
        """Respawn budget exhausted: resolve all queued work as failed so
        consumers holding futures make progress (partial-result exit)."""
        self.stats.partial = True
        while self._pending:
            task = self._pending.popleft()
            if task.future.cancelled():
                continue
            err = WorkerCrashError(
                f"worker pool exhausted its respawn budget "
                f"({self.respawn_budget}) before running {task.exp_id!r}",
                stage="experiment",
                defect="respawn budget exhausted",
            )
            task.future.set_result(
                _failure_payload(task.exp_id, err, attempts=max(1, task.dispatches))
            )
