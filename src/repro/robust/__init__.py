"""Robustness subsystem: error taxonomy, crash-safe IO, self-healing runtime.

Real layout pipelines are long-running batch jobs over messy profiles;
profile collection and ingestion are the fragile stages.  This package
makes the instrument -> optimize -> simulate -> persist pipeline survive
bad inputs, crashes, hangs, and partial failures:

- :mod:`repro.robust.errors` — the :class:`ReproError` taxonomy
  (``ProfileError``, ``SimulationError``, ``ArtifactError``, joined by
  :class:`repro.lint.integrity.LayoutError`) with machine-readable
  context, plus the transient/permanent :func:`fault_class` partition
  that drives retry decisions;
- :mod:`repro.robust.atomic` — write-temp-then-rename persistence, so a
  killed build leaves the old artifact or none, never a truncated file;
- :mod:`repro.robust.journal` — the append-only, checksummed JSONL run
  journal behind ``python -m repro.experiments --resume``, torn-tail
  safe across hard kills;
- :mod:`repro.robust.supervisor` — the self-healing execution runtime:
  :class:`SupervisedPool` (heartbeats, hang deadlines, bounded worker
  respawn), :class:`RetryPolicy` (taxonomy-aware decorrelated-jitter
  backoff), and :class:`CircuitBreaker` (the memo disk tier's
  closed/open/half-open guard);
- :mod:`repro.robust.faults` — deterministic fault injection (truncation,
  bit flips, out-of-range gids, crash points, and the process-level
  :class:`ChaosPlan` harness behind ``--chaos``) used by
  ``tests/robust/`` to prove every entry point degrades with a typed
  error.
"""

from .atomic import atomic_write, atomic_write_text
from .errors import (
    PERMANENT,
    TRANSIENT,
    ArtifactError,
    ProfileError,
    ReproError,
    SimulationError,
    WorkerCrashError,
    WorkerHangError,
    error_context,
    fault_class,
)
from .faults import ChaosPlan
from .journal import JournalEntry, RunJournal
from .supervisor import (
    CircuitBreaker,
    RetryPolicy,
    SupervisedPool,
    SupervisorStats,
)

__all__ = [
    "ArtifactError",
    "ChaosPlan",
    "CircuitBreaker",
    "JournalEntry",
    "PERMANENT",
    "ProfileError",
    "ReproError",
    "RetryPolicy",
    "RunJournal",
    "SimulationError",
    "SupervisedPool",
    "SupervisorStats",
    "TRANSIENT",
    "WorkerCrashError",
    "WorkerHangError",
    "atomic_write",
    "atomic_write_text",
    "error_context",
    "fault_class",
]
