"""Deterministic fault injection for the robustness test suite.

Layout pipelines are long-running batch jobs over messy inputs: profiles
arrive truncated, traces reference blocks that were never mapped, a build
is killed mid-write and leaves half a JSON file.  This module *produces*
those defects on demand — deterministically, from an explicit seed — so
the test suite can prove that every entry point degrades with a typed
:class:`~repro.robust.errors.ReproError` instead of a raw ``KeyError`` /
``IndexError`` / ``JSONDecodeError``.

Four families:

* **in-memory faults** — pure functions returning corrupted copies of
  traces, block tables, and layout payloads;
* **on-disk faults** — in-place file corruption (truncation, bit flips,
  JSON field surgery);
* **crash points** — named hooks (:func:`crash_at` / :func:`maybe_crash`)
  that the atomic writer checks, so a test can kill a persist mid-write
  and assert the old artifact survived intact;
* **process-level chaos** — :class:`ChaosPlan` derives a deterministic
  schedule of worker kills, injected hangs, memo I/O faults (slow and
  failing reads/writes via :func:`maybe_io_fault`), and one mid-run memo
  entry corruption from a single seed.  The supervised pool
  (:mod:`repro.robust.supervisor`) executes the plan; the soak gate
  asserts chaos journal outcomes equal the clean run's.

:class:`InjectedCrash` derives from ``BaseException`` on purpose: a real
``kill -9`` is not catchable, so a simulated one must sail past every
``except Exception`` in the pipeline.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "ChaosPlan",
    "InjectedCrash",
    "MEMO_READ",
    "MEMO_WRITE",
    "arm_chaos_worker",
    "arm_io_faults",
    "arm_io_slow",
    "chaos_corrupt_memo",
    "clear_io_faults",
    "crash_at",
    "maybe_crash",
    "maybe_io_fault",
    "armed_crash_points",
    "out_of_range_gids",
    "negative_gids",
    "float_trace",
    "empty_trace",
    "break_module_terminator",
    "non_contiguous_functions",
    "truncate_file",
    "flip_bits",
    "drop_json_key",
    "misalign_json_array",
]


# -- crash points ------------------------------------------------------------

class InjectedCrash(BaseException):
    """Simulated process death at a named crash point.

    Derives from ``BaseException`` so no ``except Exception`` handler in
    the code under test can swallow it — exactly like a real SIGKILL.
    """

    def __init__(self, point: str, detail: str = ""):
        self.point = point
        self.detail = detail
        super().__init__(f"injected crash at {point!r}" + (f" ({detail})" if detail else ""))


#: currently armed crash-point names (module-level, test-scoped via crash_at).
_ARMED: set[str] = set()

#: crash points the atomic writer exposes, for discoverability.
ATOMIC_PRE_RENAME = "atomic-write:pre-rename"
ATOMIC_MID_WRITE = "atomic-write:mid-write"


def maybe_crash(point: str, detail: str = "") -> None:
    """Raise :class:`InjectedCrash` if ``point`` is armed.  Production code
    calls this at its crash points; it is a no-op unless a test armed the
    point via :func:`crash_at`."""
    if point in _ARMED:
        raise InjectedCrash(point, detail)


@contextmanager
def crash_at(point: str) -> Iterator[None]:
    """Arm a crash point for the duration of the block."""
    _ARMED.add(point)
    try:
        yield
    finally:
        _ARMED.discard(point)


def armed_crash_points() -> frozenset[str]:
    return frozenset(_ARMED)


# -- injected I/O faults ------------------------------------------------------

#: I/O fault points the memo disk tier exposes (see repro.perf.memo).
MEMO_READ = "memo:read"
MEMO_WRITE = "memo:write"

#: point -> remaining injected failures (each consumed raises one OSError).
_IO_FAULTS: dict[str, int] = {}

#: point -> [remaining slow operations, delay seconds].
_IO_SLOW: dict[str, list[float]] = {}


def arm_io_faults(point: str, count: int) -> None:
    """Arm ``count`` injected ``OSError`` failures at ``point``."""
    _IO_FAULTS[point] = int(count)


def arm_io_slow(point: str, count: int, seconds: float) -> None:
    """Arm ``count`` slow operations (``seconds`` of extra latency each)
    at ``point``."""
    _IO_SLOW[point] = [int(count), float(seconds)]


def clear_io_faults() -> None:
    """Disarm every injected I/O fault and delay (test teardown)."""
    _IO_FAULTS.clear()
    _IO_SLOW.clear()


def maybe_io_fault(point: str, detail: str = "") -> None:
    """Consume one armed fault/delay at ``point``, if any.

    Production I/O paths (the memo disk tier) call this before touching
    the filesystem; it is a no-op unless a chaos plan or test armed the
    point.  An armed failure raises a plain ``OSError`` — exactly what a
    flaky disk produces — so the caller's real degradation path runs.
    """
    slow = _IO_SLOW.get(point)
    if slow and slow[0] > 0:
        slow[0] -= 1
        time.sleep(slow[1])
    remaining = _IO_FAULTS.get(point, 0)
    if remaining > 0:
        _IO_FAULTS[point] = remaining - 1
        raise OSError(
            f"injected I/O fault at {point!r}" + (f" ({detail})" if detail else "")
        )


# -- process-level chaos ------------------------------------------------------

@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, deterministic schedule of process-level faults.

    One plan drives one suite run: the supervised pool SIGKILLs the
    worker that first picks up each ``kill_exp_ids`` experiment and
    stalls the first dispatch of each ``hang_exp_ids`` experiment past
    the hang deadline (both attach to the *first* dispatch only, so the
    re-dispatched runs are clean and final outcomes stay deterministic);
    every worker arms ``memo_read_faults`` / ``memo_write_faults``
    injected ``OSError`` s plus ``slow_io_count`` delayed reads on its
    memo disk tier at startup; and the parent corrupts one memo entry on
    disk after consuming the ``corrupt_after``-th experiment payload.

    None of this can change a result: killed/hung tasks recompute from
    the same content-addressed inputs, and a memo fault only ever costs
    a recomputation.  The plan is picklable (it crosses the fork/spawn
    boundary in worker initializers).
    """

    seed: int
    kill_exp_ids: tuple[str, ...]
    hang_exp_ids: tuple[str, ...]
    memo_read_faults: int
    memo_write_faults: int
    slow_io_count: int
    slow_io_s: float
    corrupt_after: int

    @classmethod
    def from_seed(cls, seed: int, exp_ids: Sequence[str]) -> "ChaosPlan":
        """Derive the full schedule for ``exp_ids`` from ``seed`` alone."""
        if not exp_ids:
            raise ValueError("chaos plan needs at least one experiment id")
        rng = random.Random(f"repro.chaos|{seed}")
        ids = list(exp_ids)
        rng.shuffle(ids)
        return cls(
            seed=int(seed),
            kill_exp_ids=(ids[0],),
            hang_exp_ids=(ids[1],) if len(ids) > 1 else (),
            memo_read_faults=rng.randint(3, 5),
            memo_write_faults=rng.randint(1, 3),
            slow_io_count=rng.randint(1, 3),
            slow_io_s=round(rng.uniform(0.001, 0.01), 4),
            corrupt_after=rng.randint(1, max(1, len(ids) - 1)),
        )

    def describe(self) -> str:
        return (
            f"chaos seed {self.seed}: kill {list(self.kill_exp_ids)}, "
            f"hang {list(self.hang_exp_ids)}, "
            f"memo faults {self.memo_read_faults}r/{self.memo_write_faults}w, "
            f"{self.slow_io_count} slow reads ({self.slow_io_s}s), "
            f"corrupt memo entry after payload {self.corrupt_after}"
        )


def arm_chaos_worker(plan: ChaosPlan) -> None:
    """Arm this process's I/O fault budget from ``plan`` (called by the
    supervised pool's worker initializer)."""
    arm_io_faults(MEMO_READ, plan.memo_read_faults)
    arm_io_faults(MEMO_WRITE, plan.memo_write_faults)
    arm_io_slow(MEMO_READ, plan.slow_io_count, plan.slow_io_s)


def chaos_corrupt_memo(cache_dir: str | Path, seed: int) -> Optional[Path]:
    """Corrupt one deterministic memo entry in ``cache_dir`` mid-run.

    Returns the victim path (None if the cache holds no entries yet).
    The entry becomes a truncated ``.npz`` archive, so the next reader
    degrades to recomputation and drops it — silent wrong answers are
    impossible by construction.
    """
    entries = sorted(Path(cache_dir).glob("*.npz"))
    if not entries:
        return None
    rng = random.Random(f"repro.chaos.corrupt|{seed}")
    victim = entries[rng.randrange(len(entries))]
    data = victim.read_bytes()
    victim.write_bytes(data[: max(1, len(data) // 2)] + b"\x00CHAOS")
    return victim


# -- in-memory faults --------------------------------------------------------

def out_of_range_gids(
    trace: np.ndarray, n_blocks: int, *, seed: int = 0, count: int = 4
) -> np.ndarray:
    """Copy of ``trace`` with ``count`` entries rewritten to gids >= n_blocks."""
    rng = np.random.default_rng(seed)
    bad = np.array(trace, copy=True)
    if bad.size == 0:
        return np.full(count, n_blocks + 7, dtype=np.int64)
    idx = rng.choice(bad.size, size=min(count, bad.size), replace=False)
    bad[idx] = n_blocks + rng.integers(1, 100, size=idx.size)
    return bad


def negative_gids(trace: np.ndarray, *, seed: int = 0, count: int = 4) -> np.ndarray:
    """Copy of ``trace`` with ``count`` entries rewritten to negative gids."""
    rng = np.random.default_rng(seed)
    bad = np.array(trace, copy=True)
    if bad.size == 0:
        return np.full(count, -3, dtype=np.int64)
    idx = rng.choice(bad.size, size=min(count, bad.size), replace=False)
    bad[idx] = -rng.integers(1, 50, size=idx.size)
    return bad


def float_trace(trace: np.ndarray) -> np.ndarray:
    """The trace as float64 with a fractional entry — the classic silent
    ``astype(int)`` truncation hazard."""
    bad = np.asarray(trace, dtype=np.float64).copy()
    if bad.size:
        bad[bad.size // 2] += 0.5
    else:
        bad = np.array([0.5])
    return bad


def empty_trace() -> np.ndarray:
    """A zero-length integer trace."""
    return np.empty(0, dtype=np.int64)


class _BrokenTerminator:
    """An object no interpreter dispatch recognizes — stands in for a
    clobbered control-transfer instruction."""

    targets: tuple = ()
    callee = None

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "<broken terminator>"


def break_module_terminator(module: Any, gid: int = 0) -> None:
    """Corrupt a (sealed) module in place: replace one block's terminator
    with garbage and re-seal, which drops the module's execution table, so
    the next instrumented run rebuilds it and hits an unknown control
    transfer.  Duck-typed on purpose — the harness stays import-light."""
    module.block_by_gid(gid).terminator = _BrokenTerminator()
    module.seal()


def non_contiguous_functions(func_of_block: Sequence[int]) -> list[int]:
    """A func-of-block table whose first function's blocks are split by a
    foreign block — violates the contiguity contract of ``from_profile``."""
    table = list(func_of_block)
    if len(table) < 3 or len(set(table)) < 2:
        raise ValueError("need >= 3 blocks over >= 2 functions to interleave")
    other = next(fi for fi in table if fi != table[0])
    table[1] = other
    return table


# -- on-disk faults ----------------------------------------------------------

def truncate_file(path: str | Path, *, keep_fraction: float = 0.5) -> int:
    """Truncate a file in place to ``keep_fraction`` of its bytes (at least
    one byte short of full).  Returns the new size."""
    p = Path(path)
    size = p.stat().st_size
    keep = min(int(size * keep_fraction), size - 1)
    keep = max(keep, 0)
    with p.open("rb+") as fh:
        fh.truncate(keep)
    return keep


def flip_bits(path: str | Path, *, seed: int = 0, count: int = 8) -> list[int]:
    """Flip ``count`` deterministic bits in the file.  Returns the byte
    offsets touched."""
    p = Path(path)
    data = bytearray(p.read_bytes())
    if not data:
        raise ValueError(f"cannot flip bits in empty file {p}")
    rng = np.random.default_rng(seed)
    offsets = sorted(
        int(i) for i in rng.choice(len(data), size=min(count, len(data)), replace=False)
    )
    for off in offsets:
        data[off] ^= 1 << int(rng.integers(0, 8))
    p.write_bytes(bytes(data))
    return offsets


def drop_json_key(path: str | Path, key: str) -> None:
    """Remove a top-level key from a JSON file (schema corruption)."""
    p = Path(path)
    payload = json.loads(p.read_text())
    if key not in payload:
        raise KeyError(f"{p} has no top-level key {key!r}")
    del payload[key]
    p.write_text(json.dumps(payload, indent=1))


def misalign_json_array(path: str | Path, key: str, *, drop: int = 1) -> None:
    """Shorten a top-level JSON array by ``drop`` entries (length-mismatch
    corruption, e.g. ``starts`` no longer parallel to ``order``)."""
    p = Path(path)
    payload = json.loads(p.read_text())
    value = payload.get(key)
    if not isinstance(value, list) or len(value) < drop:
        raise ValueError(f"{p}: key {key!r} is not an array of >= {drop} entries")
    payload[key] = value[: len(value) - drop]
    p.write_text(json.dumps(payload, indent=1))


def corrupt_layout_payload(payload: dict, defect: str) -> dict[str, Any]:
    """Return a corrupted copy of a layout JSON payload.

    Defects: ``drop-kind``, ``bad-kind``, ``duplicate-gid``,
    ``length-mismatch``, ``negative-start``.
    """
    bad = json.loads(json.dumps(payload))  # deep copy via JSON round-trip
    if defect == "drop-kind":
        del bad["kind"]
    elif defect == "bad-kind":
        bad["kind"] = "no-such-layout-kind"
    elif defect == "duplicate-gid":
        # keep the length so the defect is the duplication, not a mismatch.
        bad["order"] = bad["order"][:1] + bad["order"][:-1]
    elif defect == "length-mismatch":
        bad["starts"] = bad["starts"][:-1]
    elif defect == "negative-start":
        bad["starts"] = [-8] + bad["starts"][1:]
    else:
        raise ValueError(f"unknown layout defect {defect!r}")
    return bad


__all__.append("corrupt_layout_payload")
