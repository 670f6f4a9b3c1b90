"""Experiment registry and hardened command-line runner.

``python -m repro.experiments`` runs every table/figure reproduction and
prints the paper-shaped output; ``--only fig5 --scale 0.25`` narrows and
shrinks the run.  The same registry backs the pytest-benchmark harness in
``benchmarks/``.

The runner is built for long, messy batch runs:

* every experiment executes in its own isolation boundary — a failure is
  caught, typed (:class:`~repro.robust.errors.SimulationError` et al.),
  and summarized instead of aborting the interpreter with a traceback;
* ``--keep-going`` continues the suite past failures and exits nonzero
  with a failure summary;
* a JSONL run journal (written whenever ``--journal``, ``--keep-going``
  or ``--resume`` is in play) records each outcome crash-safely, and
  ``--resume`` skips experiments the journal already shows completed;
* ``--retries N`` re-attempts a failed experiment up to N extra times —
  mainly useful for the seed-sensitive ablations;
* ``--inject-fault ID`` is a fault-injection drill: it forces that
  experiment to fail so operators (and the test suite) can verify the
  keep-going/journal/resume machinery end to end;
* ``--jobs N`` fans experiments out across N worker processes with
  outcomes, journal, and output identical to the serial run (modulo
  timing fields); ``--memo-dir`` adds a persistent content-addressed
  simulation memo cache; ``--bench-out`` writes a ``BENCH_perf.json``
  telemetry report (see :mod:`repro.perf` and docs/performance.md).

Retries are fault-class aware: a failure is retried only if
:func:`repro.robust.errors.fault_class` calls it transient — permanent
failures (bad input, broken invariants) fail fast no matter the budget —
and backoff follows the deterministic decorrelated-jitter schedule of
:class:`repro.robust.supervisor.RetryPolicy`.  Parallel runs execute
under the :class:`~repro.robust.supervisor.SupervisedPool` self-healing
runtime (heartbeats, hang deadlines, bounded worker respawn), and
``--chaos SEED`` arms the deterministic process-level chaos harness
(worker kills, hangs, memo I/O faults, mid-run corruption — see
docs/robustness.md) whose journal outcomes must match a clean run.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, TextIO

from ..robust.errors import ReproError, SimulationError
from ..robust.journal import RunJournal
from ..robust.supervisor import RetryPolicy
from . import (
    ablations,
    exp_cache_sweep,
    exp_comparators,
    exp_fig4,
    exp_fig5,
    exp_fig6,
    exp_fig7,
    exp_fleet,
    exp_intro,
    exp_model,
    exp_optopt,
    exp_scheduling,
    exp_smt_width,
    exp_staticlint,
    exp_table1,
    exp_table2,
    exp_unified,
)
from .pipeline import Lab
from .report import ExperimentResult

__all__ = [
    "EXPERIMENTS",
    "ExperimentOutcome",
    "UnknownExperimentError",
    "attempt_experiment",
    "run_experiment",
    "run_all",
    "run_suite",
    "main",
]

#: default run-journal path (see ``--journal``).
DEFAULT_JOURNAL = "repro-experiments.jsonl"

#: experiment id -> driver. Drivers take a Lab and return ExperimentResult.
EXPERIMENTS: dict[str, Callable[[Lab], ExperimentResult]] = {
    "intro-table": exp_intro.run,
    "table1": exp_table1.run,
    "fig4": exp_fig4.run,
    "fig5": exp_fig5.run,
    "table2": exp_table2.run,
    "fig6": exp_fig6.run,
    "fig7": exp_fig7.run,
    "optopt": exp_optopt.run,
    "comparators": exp_comparators.run,
    "unified": exp_unified.run,
    "model-validation": exp_model.run,
    "smt-width": exp_smt_width.run,
    "cache-sweep": exp_cache_sweep.run,
    "scheduling": exp_scheduling.run,
    "fleet": exp_fleet.run,
    "staticlint-certify": exp_staticlint.run,
    "ablation-trg-window": ablations.run_trg_window,
    "ablation-affinity-windows": ablations.run_affinity_windows,
    "ablation-pruning": ablations.run_pruning,
    "ablation-optimal-gap": lambda lab: ablations.run_optimal_gap(lab),
    "ablation-seeds": ablations.run_seed_robustness,
}


class UnknownExperimentError(ReproError, KeyError):
    """An experiment id not present in the registry.

    Doubles as :class:`KeyError` for callers that predate the taxonomy.
    """

    def __init__(self, exp_id: str):
        self.exp_id = exp_id
        super().__init__(
            f"unknown experiment {exp_id!r}; known: {', '.join(EXPERIMENTS)}",
            stage="experiment",
            defect=f"unknown id {exp_id!r}",
        )


def run_experiment(exp_id: str, lab: Lab) -> ExperimentResult:
    """Run one experiment by id against a shared lab."""
    try:
        driver = EXPERIMENTS[exp_id]
    except KeyError:
        raise UnknownExperimentError(exp_id) from None
    return driver(lab)


def run_all(lab: Lab, only: list[str] | None = None) -> list[ExperimentResult]:
    ids = only or list(EXPERIMENTS)
    return [run_experiment(i, lab) for i in ids]


# -- hardened suite execution ------------------------------------------------

@dataclass
class ExperimentOutcome:
    """The isolated result of one experiment slot in a suite run."""

    exp_id: str
    #: "ok", "failed", or "skipped" (journal said already complete).
    status: str
    #: monotonic-clock duration of all attempts (never wall-clock jumps).
    elapsed_s: float = 0.0
    attempts: int = 0
    result: Optional[ExperimentResult] = None
    error: Optional[ReproError] = None
    #: per-stage wall seconds this experiment added to the lab's totals.
    timings: dict = field(default_factory=dict)


def _as_repro_error(exp_id: str, err: Exception) -> ReproError:
    """Type any escaped exception; ReproErrors pass through annotated."""
    if isinstance(err, ReproError):
        return err.ensure_context(stage="experiment")
    wrapped = SimulationError(
        f"experiment {exp_id!r} failed",
        stage="experiment",
        defect=type(err).__name__,
        cause=err,
    )
    wrapped.__cause__ = err
    return wrapped


def attempt_experiment(
    lab: Lab,
    exp_id: str,
    *,
    retries: int = 0,
    inject_fault: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
) -> tuple[ExperimentOutcome, list[str]]:
    """Run one experiment's full attempt loop in isolation.

    The single source of truth for per-experiment semantics — the serial
    suite loop and the ``--jobs`` worker processes both call this, which
    is what makes parallel outcomes provably identical to serial ones.
    Retries follow ``policy`` (default: a :class:`RetryPolicy` granting
    ``retries`` extra attempts): only transient fault classes are
    retried, with deterministic decorrelated-jitter backoff keyed by
    ``exp_id``; permanent failures fail fast.  Durations use the
    monotonic clock (``time.perf_counter``), never wall-clock
    ``time.time`` — an NTP step mid-experiment must not warp
    ``elapsed_s``.  Returns the outcome plus the retry notes to print.
    """
    if policy is None:
        policy = RetryPolicy(max_retries=retries)
    elif retries > policy.max_retries:
        policy = replace(policy, max_retries=retries)
    outcome = ExperimentOutcome(exp_id, "failed")
    notes: list[str] = []
    timings_before = dict(lab.timings)
    start = time.perf_counter()
    attempt = 0
    while True:
        attempt += 1
        outcome.attempts = attempt
        try:
            if inject_fault == exp_id:
                raise SimulationError(
                    f"injected fault in experiment {exp_id!r} (drill)",
                    stage="experiment",
                    defect="injected fault",
                )
            outcome.result = run_experiment(exp_id, lab)
            outcome.status = "ok"
            outcome.error = None
            break
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as err:
            outcome.error = _as_repro_error(exp_id, err)
            if not policy.should_retry(outcome.error, attempt):
                break
            notes.append(
                f"!! {exp_id}: attempt {attempt} failed "
                f"({outcome.error}); retrying"
            )
            policy.sleep_before_retry(exp_id, attempt)
    outcome.elapsed_s = time.perf_counter() - start
    outcome.timings = {
        stage: total - timings_before.get(stage, 0.0)
        for stage, total in lab.timings.items()
        if total - timings_before.get(stage, 0.0) > 0.0
    }
    return outcome, notes


def _emit_outcome(
    outcome: ExperimentOutcome,
    notes: list[str],
    *,
    journal: Optional[RunJournal],
    error_dict: Optional[dict],
    out: TextIO,
) -> None:
    """Journal and print one finished experiment (serial and parallel)."""
    for note in notes:
        print(note, file=out)
    if journal is not None:
        journal.record(
            outcome.exp_id,
            outcome.status,
            elapsed_s=outcome.elapsed_s,
            attempts=outcome.attempts,
            error=error_dict,
            timings=outcome.timings or None,
        )
    if outcome.status == "ok":
        print(outcome.result.to_text(), file=out)
        print(f"  [{outcome.elapsed_s:.1f}s]", file=out)
    else:
        print(f"== {outcome.exp_id}: FAILED ==", file=out)
        print(f"  {outcome.error}", file=out)
        print(
            f"  [{outcome.elapsed_s:.1f}s, {outcome.attempts} attempt(s)]", file=out
        )
    print(file=out)


def run_suite(
    lab: Lab,
    ids: list[str],
    *,
    keep_going: bool = False,
    journal: Optional[RunJournal] = None,
    resume: bool = False,
    retries: int = 0,
    inject_fault: Optional[str] = None,
    out: Optional[TextIO] = None,
    jobs: int = 1,
    telemetry=None,
    policy: Optional[RetryPolicy] = None,
    chaos=None,
    hang_timeout_s: float = 300.0,
    respawn_budget: int = 4,
) -> list[ExperimentOutcome]:
    """Run ``ids`` with per-experiment isolation.

    Each experiment's failure is captured as a typed
    :class:`~repro.robust.errors.ReproError` in its
    :class:`ExperimentOutcome` (and journal entry).  Without
    ``keep_going`` the suite stops after the first failure — but still
    returns outcomes instead of raising, so the caller always gets the
    journal-consistent picture.  ``resume`` skips ids the journal's
    latest entry marks ``ok``.  ``retries`` grants each failing
    experiment that many extra attempts.  ``inject_fault`` forces the
    named experiment to fail (a drill for the failure machinery).

    ``jobs > 1`` fans the experiments out across worker processes (one
    private :class:`Lab` per worker) under the self-healing
    :class:`~repro.robust.supervisor.SupervisedPool` while preserving
    every serial guarantee: isolation, typed errors, journal entries,
    and output in the exact serial order — results and report text are
    identical modulo timing fields.  ``telemetry`` (a
    :class:`repro.perf.telemetry.Telemetry`) collects per-stage wall
    time and throughput counters from whichever path ran.  ``policy``
    overrides the default taxonomy-aware retry schedule; ``chaos`` (a
    :class:`repro.robust.faults.ChaosPlan`) arms the deterministic chaos
    harness on the parallel path; ``hang_timeout_s`` and
    ``respawn_budget`` tune the supervisor.
    """
    out = out or sys.stdout
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise UnknownExperimentError(unknown[0])
    if jobs < 1:
        raise ValueError("jobs must be >= 1")

    already_done = journal.completed() if (journal and resume) else set()
    wall_start = time.perf_counter()
    if jobs == 1:
        outcomes = _run_suite_serial(
            lab,
            ids,
            already_done,
            keep_going=keep_going,
            journal=journal,
            retries=retries,
            inject_fault=inject_fault,
            out=out,
            telemetry=telemetry,
            policy=policy,
        )
        if telemetry is not None:
            telemetry.merge_stages(lab.timings)
            telemetry.merge_counters(lab.counters)
            if lab.memo is not None:
                telemetry.merge_memo(lab.memo.counters())
            if lab.store is not None:
                telemetry.merge_store(lab.store.counters())
    else:
        outcomes = _run_suite_parallel(
            lab,
            ids,
            already_done,
            keep_going=keep_going,
            journal=journal,
            retries=retries,
            inject_fault=inject_fault,
            out=out,
            jobs=jobs,
            telemetry=telemetry,
            policy=policy,
            chaos=chaos,
            hang_timeout_s=hang_timeout_s,
            respawn_budget=respawn_budget,
        )
    if telemetry is not None:
        telemetry.wall_s += time.perf_counter() - wall_start
        for o in outcomes:
            telemetry.record_experiment(o.exp_id, o.status, o.elapsed_s, o.attempts)
    return outcomes


def _skip_outcome(exp_id: str, out: TextIO) -> ExperimentOutcome:
    print(f"== {exp_id}: skipped (journal: already complete) ==", file=out)
    print(file=out)
    return ExperimentOutcome(exp_id, "skipped")


def _run_suite_serial(
    lab: Lab,
    ids: list[str],
    already_done: set[str],
    *,
    keep_going: bool,
    journal: Optional[RunJournal],
    retries: int,
    inject_fault: Optional[str],
    out: TextIO,
    telemetry,
    policy: Optional[RetryPolicy] = None,
) -> list[ExperimentOutcome]:
    outcomes: list[ExperimentOutcome] = []
    for exp_id in ids:
        if exp_id in already_done:
            outcomes.append(_skip_outcome(exp_id, out))
            continue
        outcome, notes = attempt_experiment(
            lab, exp_id, retries=retries, inject_fault=inject_fault, policy=policy
        )
        _emit_outcome(
            outcome,
            notes,
            journal=journal,
            error_dict=outcome.error.to_dict() if outcome.error else None,
            out=out,
        )
        outcomes.append(outcome)
        if outcome.status == "failed" and not keep_going:
            break
    return outcomes


def _run_suite_parallel(
    lab: Lab,
    ids: list[str],
    already_done: set[str],
    *,
    keep_going: bool,
    journal: Optional[RunJournal],
    retries: int,
    inject_fault: Optional[str],
    out: TextIO,
    jobs: int,
    telemetry,
    policy: Optional[RetryPolicy] = None,
    chaos=None,
    hang_timeout_s: float = 300.0,
    respawn_budget: int = 4,
) -> list[ExperimentOutcome]:
    from ..perf.parallel import rebuild_error
    from ..robust.faults import chaos_corrupt_memo
    from ..robust.supervisor import SupervisedPool

    memo_dir = None
    if lab.memo is not None and lab.memo.cache_dir is not None:
        memo_dir = str(lab.memo.cache_dir)
    store_dir = None
    if lab.store is not None:
        store_dir = str(lab.store.root)
    breaker_config = None
    if chaos is not None:
        # A tight breaker so the chaos soak exercises trip + recovery in
        # seconds: three strikes open it, a quarter-second half-opens it.
        breaker_config = {"failure_threshold": 3, "reset_after_s": 0.25}

    outcomes: list[ExperimentOutcome] = []
    pool = SupervisedPool(
        jobs,
        lab.spawn_config(),
        memo_dir=memo_dir,
        hang_timeout_s=hang_timeout_s,
        respawn_budget=respawn_budget,
        breaker_config=breaker_config,
        store_dir=store_dir,
        chaos=chaos,
    )
    with pool:
        futures = {
            exp_id: pool.submit(
                exp_id, retries=retries, inject_fault=inject_fault, policy=policy
            )
            for exp_id in ids
            if exp_id not in already_done
        }
        # Consume strictly in submission order: output, journal entries,
        # and early-abort behavior match the serial run line for line.
        consumed = 0
        for exp_id in ids:
            if exp_id in already_done:
                outcomes.append(_skip_outcome(exp_id, out))
                continue
            payload = futures[exp_id].result()
            consumed += 1
            if (
                chaos is not None
                and memo_dir is not None
                and consumed == chaos.corrupt_after
            ):
                # Mid-run silent corruption drill: garble one memo entry
                # while workers are still reading the cache.  Readers
                # detect it and degrade to recomputation, so outcomes
                # stay identical to a clean run.
                chaos_corrupt_memo(memo_dir, chaos.seed)
            error_payload = payload["error"]
            outcome = ExperimentOutcome(
                exp_id=payload["exp_id"],
                status=payload["status"],
                elapsed_s=payload["elapsed_s"],
                attempts=payload["attempts"],
                result=payload["result"],
                error=rebuild_error(error_payload) if error_payload else None,
                timings=payload["timings"],
            )
            _emit_outcome(
                outcome,
                payload["notes"],
                journal=journal,
                error_dict=error_payload["dict"] if error_payload else None,
                out=out,
            )
            if telemetry is not None:
                telemetry.merge_stages(payload["timings"])
                telemetry.merge_counters(payload["counters"])
                telemetry.merge_memo(payload["memo"])
                telemetry.merge_store(payload.get("store"))
            outcomes.append(outcome)
            if outcome.status == "failed" and not keep_going:
                break
    if telemetry is not None:
        stats = pool.stats.to_dict()
        stats["breaker_trips"] = telemetry.memo.get("breaker_trips", 0)
        stats["breaker_recoveries"] = telemetry.memo.get("breaker_recoveries", 0)
        telemetry.merge_resilience(stats)
    return outcomes


def _summarize(outcomes: list[ExperimentOutcome], out: TextIO) -> None:
    ok = sum(1 for o in outcomes if o.status == "ok")
    skipped = sum(1 for o in outcomes if o.status == "skipped")
    failed = [o for o in outcomes if o.status == "failed"]
    line = f"suite: {ok} ok, {len(failed)} failed, {skipped} skipped"
    print(line, file=out)
    for o in failed:
        print(f"  FAILED {o.exp_id}: {o.error}", file=out)


def _positive_scale(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"scale must be a number, got {text!r}")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"scale must be in (0, 1], got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "--scale",
        type=_positive_scale,
        default=1.0,
        help="trace-budget multiplier in (0,1]; smaller = faster",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help=f"experiment ids to run (default: all). Known: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="continue past failed experiments; summarize failures and exit nonzero",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments the run journal already shows completed",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts for a failed experiment (for seed-sensitive ablations)",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=f"run-journal path (default {DEFAULT_JOURNAL}; journaling is on "
        "whenever --journal, --keep-going or --resume is given)",
    )
    parser.add_argument(
        "--inject-fault",
        default=None,
        metavar="ID",
        help="fault-injection drill: force this experiment to fail",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the suite (1 = serial; results are "
        "identical at any N, modulo timing fields)",
    )
    parser.add_argument(
        "--memo-dir",
        default=None,
        metavar="DIR",
        help="directory for the content-addressed simulation memo cache "
        "(persisted across runs; see docs/performance.md)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="directory for the zero-copy content-addressed trace store: "
        "fetch streams ship to workers as ~100-byte memmap refs instead "
        "of pickled arrays (persisted across runs; see "
        "docs/performance.md)",
    )
    parser.add_argument(
        "--bench-out",
        default=None,
        metavar="PATH",
        help="write a BENCH_perf.json timing/telemetry report here",
    )
    parser.add_argument(
        "--kernel-backend",
        default=None,
        choices=("scalar", "numpy", "compiled"),
        metavar="TIER",
        help="force one kernel tier (scalar|numpy|compiled) for the "
        "stack-distance histogram and the locality models instead of the "
        "fastest available; all tiers are parity-gated bit-identical, and "
        "scalar is the oracle run (see docs/performance.md)",
    )
    parser.add_argument(
        "--chaos",
        type=int,
        default=None,
        metavar="SEED",
        help="arm the deterministic chaos harness with this seed (worker "
        "kill, hang, memo I/O faults, mid-run corruption); requires "
        "--jobs >= 2 and at least two experiments.  Outcomes must match "
        "a clean run — see docs/robustness.md",
    )
    parser.add_argument(
        "--hang-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="supervisor per-task deadline and heartbeat-stall limit "
        "(default 300; chaos runs default to 60 so injected hangs are "
        "detected quickly without outrunning honest slow experiments)",
    )
    parser.add_argument(
        "--respawn-budget",
        type=int,
        default=4,
        metavar="N",
        help="workers the supervisor may replace before giving up and "
        "resolving remaining work as failed (partial-result exit)",
    )
    args = parser.parse_args(argv)

    ids = args.only if args.only is not None else list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(
            f"error: unknown experiment id(s): {', '.join(sorted(unknown))}\n"
            f"known ids: {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    if args.retries < 0:
        print("error: --retries must be >= 0", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.inject_fault is not None and args.inject_fault not in EXPERIMENTS:
        print(
            f"error: --inject-fault names unknown experiment "
            f"{args.inject_fault!r}\nknown ids: {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    if args.respawn_budget < 0:
        print("error: --respawn-budget must be >= 0", file=sys.stderr)
        return 2
    if args.hang_timeout is not None and args.hang_timeout <= 0:
        print("error: --hang-timeout must be > 0", file=sys.stderr)
        return 2
    if args.kernel_backend is not None:
        from ..perf.backends import resolve_backend

        try:
            # Strict here: a user forcing an uninstalled tier gets a loud
            # error up front.  Workers still resolve with strict=False.
            resolve_backend(args.kernel_backend)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    chaos = None
    if args.chaos is not None:
        if args.jobs < 2 or len(ids) < 2:
            print(
                "error: --chaos needs --jobs >= 2 and at least two "
                "experiments (the harness kills and hangs workers; "
                "redundancy is the point)",
                file=sys.stderr,
            )
            return 2
        from ..robust.faults import ChaosPlan

        # The chaos drill targets the memo disk tier too; give it one.
        if args.memo_dir is None:
            args.memo_dir = ".chaos-memo"
        chaos = ChaosPlan.from_seed(args.chaos, ids)
        print(f"chaos: {chaos.describe()}")
    hang_timeout_s = args.hang_timeout
    if hang_timeout_s is None:
        hang_timeout_s = 60.0 if chaos is not None else 300.0

    journal: Optional[RunJournal] = None
    if args.journal is not None or args.keep_going or args.resume:
        journal = RunJournal(Path(args.journal or DEFAULT_JOURNAL))

    memo = None
    if args.memo_dir is not None:
        from ..perf.memo import SimMemo

        memo = SimMemo(args.memo_dir)

    store = None
    if args.store_dir is not None:
        from ..perf.store import TraceStore

        store = TraceStore(args.store_dir)

    telemetry = None
    if args.bench_out is not None:
        from ..perf.backends import resolve_backend
        from ..perf.telemetry import Telemetry

        telemetry = Telemetry(
            jobs=args.jobs,
            scale=args.scale,
            kernel_backend=resolve_backend(args.kernel_backend, strict=False).name,
        )

    # With several experiments, parallelize across them; with exactly
    # one, spend the workers inside the pipeline (simulation cells)
    # instead — never both at once (no nested pools).
    suite_jobs = args.jobs if len(ids) > 1 else 1
    cell_jobs = args.jobs if len(ids) == 1 else 1
    lab = Lab(
        scale=args.scale,
        jobs=cell_jobs,
        memo=memo,
        store=store,
        kernel_backend=args.kernel_backend,
    )
    with lab:
        outcomes = run_suite(
            lab,
            ids,
            keep_going=args.keep_going,
            journal=journal,
            resume=args.resume,
            retries=args.retries,
            inject_fault=args.inject_fault,
            jobs=suite_jobs,
            telemetry=telemetry,
            chaos=chaos,
            hang_timeout_s=hang_timeout_s,
            respawn_budget=args.respawn_budget,
        )
    _summarize(outcomes, sys.stdout)
    if chaos is not None and memo is not None:
        # Leave no partial or corrupt artifact behind: drop every memo
        # entry the chaos run garbled (and any stray lock/tmp files).
        kept, dropped = memo.scrub()
        print(f"chaos scrub: {kept} memo entries kept, {dropped} dropped")
    if journal is not None:
        print(f"journal: {journal.path}")
    if telemetry is not None:
        print(f"bench: {telemetry.write(args.bench_out)}")
    return 1 if any(o.status == "failed" for o in outcomes) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
