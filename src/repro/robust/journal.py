"""Append-only JSONL journal of an experiment run.

One line per finished experiment attempt::

    {"exp_id": "fig5", "status": "ok", "elapsed_s": 12.3, "attempts": 1,
     "finished_at": 1754460000.0, "error": null,
     "summary": {"avg_reduction": 0.0812}, "rows": [["syn-gcc", "8.1%"]],
     "check": "1f2e3d..."}

``summary`` and ``rows`` are the experiment's outcome (its headline
numbers and rendered table), so two journals of the same suite can be
compared result for result, not just status for status.

The journal is the source of truth for ``--resume``: a later run reads it
back and skips every experiment already recorded with ``status == "ok"``.
Records are flushed and fsynced line-by-line, so a crash loses at most
the line being written — and the machinery tolerates exactly that, twice
over:

* **at read time**, a truncated or garbled *trailing* line (the
  signature of a crash mid-append) is dropped instead of raised on;
* **at write time**, :meth:`RunJournal.record` first truncates any torn
  trailing line, so appending after a hard kill starts on a fresh line
  instead of merging the new record into the torn one (which would turn
  a survivable torn tail into an unreadable *interior* line).

Every written record also carries a ``check`` field — a truncated
SHA-256 over the canonical payload — so *silent* mid-file corruption
(bit rot, a concurrent writer splicing bytes) is detected as a typed
:class:`~repro.robust.errors.ArtifactError` instead of being read back
as plausible-looking wrong data.  Checksums are verified when present
and never required: journals from older versions read back unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ArtifactError

__all__ = ["JournalEntry", "RunJournal"]

#: statuses a journal entry may carry.
STATUSES = ("ok", "failed", "skipped")

#: hex digits of SHA-256 kept in each record's "check" field.
_CHECK_DIGITS = 16


def _checksum(payload: dict) -> str:
    """Truncated SHA-256 of the canonical (sorted, check-less) payload."""
    canon = json.dumps(
        {k: v for k, v in payload.items() if k != "check"}, sort_keys=True
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:_CHECK_DIGITS]


@dataclass(frozen=True)
class JournalEntry:
    """One finished experiment attempt.

    Deliberately does *not* carry the on-disk ``check`` field: the
    checksum is a property of the stored line, not of the outcome, and
    entry payloads are compared across runs (journal parity) where a
    storage artifact must not participate.
    """

    exp_id: str
    status: str
    elapsed_s: float = 0.0
    attempts: int = 1
    finished_at: float = 0.0
    #: machine-readable error (ReproError.to_dict()) for failed entries.
    error: Optional[dict] = None
    #: per-stage wall seconds for this experiment (telemetry; optional).
    timings: Optional[dict] = None
    #: the experiment's headline numbers (``ExperimentResult.summary``).
    summary: Optional[dict] = None
    #: the experiment's rendered table rows (``ExperimentResult.rows``).
    rows: Optional[list] = None

    def to_json(self) -> str:
        payload = {
            "exp_id": self.exp_id,
            "status": self.status,
            "elapsed_s": round(self.elapsed_s, 3),
            "attempts": self.attempts,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if self.timings is not None:
            payload["timings"] = {k: round(v, 4) for k, v in self.timings.items()}
        if self.summary is not None:
            payload["summary"] = self.summary
        if self.rows is not None:
            payload["rows"] = self.rows
        return json.dumps(payload, sort_keys=True)


class RunJournal:
    """Append-only experiment journal at ``path``."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def _repair_torn_tail(self) -> bool:
        """Truncate a torn final line (missing trailing newline).

        A hard kill mid-append leaves a partial last line; appending the
        next record directly after it would merge both into one garbled
        *interior* line that :meth:`entries` must treat as real
        corruption.  Truncating back to the last complete line keeps the
        journal append-safe across kills.  Returns True if bytes were
        removed.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return False
        if not data or data.endswith(b"\n"):
            return False
        cut = data.rfind(b"\n")
        with self.path.open("rb+") as fh:
            fh.truncate(cut + 1 if cut >= 0 else 0)
        return True

    def record(
        self,
        exp_id: str,
        status: str,
        *,
        elapsed_s: float = 0.0,
        attempts: int = 1,
        error: Optional[dict] = None,
        timings: Optional[dict] = None,
        summary: Optional[dict] = None,
        rows: Optional[list] = None,
    ) -> JournalEntry:
        """Append one checksummed entry, flushed and fsynced before
        returning.

        ``elapsed_s`` and ``timings`` are monotonic-clock durations;
        ``finished_at`` is deliberately epoch time (a human-readable
        completion stamp, not used for arithmetic).  ``summary`` values
        are stored as floats and ``rows`` cells as strings, so the entry
        reads back equal to what was recorded.
        """
        if status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}, got {status!r}")
        entry = JournalEntry(
            exp_id=exp_id,
            status=status,
            elapsed_s=elapsed_s,
            attempts=attempts,
            finished_at=time.time(),
            error=error,
            timings=timings,
            summary=None if summary is None else {k: float(v) for k, v in summary.items()},
            rows=None if rows is None else [[str(c) for c in row] for row in rows],
        )
        payload = json.loads(entry.to_json())
        payload["check"] = _checksum(payload)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._repair_torn_tail()
        with self.path.open("a") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return entry

    def entries(self) -> list[JournalEntry]:
        """Read the journal back, tolerating a truncated trailing line.

        A garbled or checksum-failing line anywhere *except* the end is
        a real corruption and raises
        :class:`~repro.robust.errors.ArtifactError`; a bad final line is
        the expected signature of a crash mid-append and is dropped
        silently.  Records without a ``check`` field (older journals)
        are accepted unverified.
        """
        if not self.path.exists():
            return []
        out: list[JournalEntry] = []
        lines = self.path.read_text().splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            defect = "garbled interior line"
            try:
                raw = json.loads(line)
                if isinstance(raw, dict) and "check" in raw:
                    stated = raw.pop("check")
                    if stated != _checksum(raw):
                        defect = "checksum mismatch (silent corruption)"
                        raise ValueError(
                            f"stated checksum {stated!r} does not match payload"
                        )
                entry = JournalEntry(
                    exp_id=raw["exp_id"],
                    status=raw["status"],
                    elapsed_s=float(raw.get("elapsed_s", 0.0)),
                    attempts=int(raw.get("attempts", 1)),
                    finished_at=float(raw.get("finished_at", 0.0)),
                    error=raw.get("error"),
                    timings=raw.get("timings"),
                    summary=raw.get("summary"),
                    rows=raw.get("rows"),
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
                if lineno == len(lines):
                    break  # torn final line: crash signature, drop it.
                raise ArtifactError(
                    f"journal line {lineno} is corrupt",
                    path=self.path,
                    defect=defect,
                    cause=err,
                ) from err
            out.append(entry)
        return out

    def completed(self) -> set[str]:
        """Experiment ids whose *latest* entry has ``status == "ok"``."""
        latest: dict[str, str] = {}
        for entry in self.entries():
            latest[entry.exp_id] = entry.status
        return {exp_id for exp_id, status in latest.items() if status == "ok"}
