"""Shared-cache co-run simulation (SMT hyper-threading).

When two programs co-run on the hyper-threads of one core, they share the
L1 instruction cache.  This simulator interleaves the threads' fetch
streams into one shared set-associative LRU cache and reports per-thread
statistics — the reproduction of the paper's "CMP L1 instruction cache"
Pin extension.

Interleaving policy (:func:`issue_order`): round-robin quanta of
``quantum`` line accesses per thread, modeling the alternating fetch slots
of SMT front-ends.  A thread whose stream ends is restarted from the
beginning (the standard co-run methodology: the probe program is re-run
until the measured program completes).  The simulation stops after the
round in which every thread has completed at least one full pass of its
stream.  The order has a closed form, so :func:`interleave` expands it
once into one stream of lines plus a parallel array naming the thread of
each access, and both channels consume that labelled stream:

* without a prefetcher (the clean simulator channel) the shared cache is
  plain LRU, whose inclusion property holds whoever issues an access, so
  per-thread misses come from one labelled stack-distance sweep
  (:func:`repro.cache.fastsim.thread_misses`);
* with the next-line prefetcher (the hardware-counter channel) the
  prefetches change set contents, so the stream runs through the LRU set
  loop (:func:`repro.cache.setassoc.run_lru`).

Per-thread stats cover all accesses the thread actually issued (including
wrapped passes), so miss ratios remain well-defined for both threads;
:func:`pass_scale` normalizes them to one pass.

Prefetch attribution: the shared next-line prefetcher is one hardware
resource, so a line prefetched on thread A's miss can be consumed by
thread B.  The politeness accounting must not conflate those: per-thread
``prefetches`` counts lines the thread *issued*, and consumed hits are
split into ``prefetch_hits_self`` (the consuming thread also issued the
prefetch — self-help) and ``prefetch_hits_cross`` (a peer issued it —
peer-help received).  ``prefetch_hits`` remains the consumer-side total,
``self + cross``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import CacheConfig
from .fastsim import thread_misses
from .setassoc import run_lru
from .stats import SharedCacheStats

__all__ = ["SharedCacheStats", "interleave", "issue_order", "pass_scale", "simulate_shared"]


def issue_order(lengths: Sequence[int], quantum: int) -> np.ndarray:
    """Round-robin SMT issue order over streams of ``lengths``.

    Returns an ``(R, 3)`` int64 array of ``(thread, start, end)`` chunks
    of at most ``quantum`` accesses.  Each round visits every non-empty
    thread once, in thread order; a thread that reaches its end restarts
    at 0.  The order ends with the round in which the last thread
    completes its first pass.  In closed form: thread ``t`` has
    ``c_t = ceil(L_t / quantum)`` chunks per pass, there are
    ``max_t c_t`` rounds, and round ``k`` issues chunk ``k mod c_t``.
    """
    if quantum < 1:
        raise ValueError("quantum must be >= 1")
    sizes = np.asarray(lengths, dtype=np.int64).reshape(-1)
    active = np.flatnonzero(sizes > 0)
    if active.shape[0] == 0:
        return np.zeros((0, 3), dtype=np.int64)
    n = sizes[active]
    chunks = -(-n // quantum)
    rounds = np.arange(int(chunks.max()), dtype=np.int64)[:, None]
    start = (rounds % chunks) * quantum
    rows = np.empty((rounds.shape[0], active.shape[0], 3), dtype=np.int64)
    rows[..., 0] = active
    rows[..., 1] = start
    rows[..., 2] = np.minimum(start + quantum, n)
    return rows.reshape(-1, 3)


def interleave(streams: Sequence[np.ndarray], quantum: int) -> tuple[np.ndarray, np.ndarray]:
    """The streams in :func:`issue_order`, as the shared cache sees them.

    Returns ``(lines, threads)``: the interleaved int64 line stream and,
    for each access, the index of the stream that issued it.
    """
    sizes = np.array([len(s) for s in streams], dtype=np.int64)
    rows = issue_order(sizes, quantum)
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    thread, start, end = rows.T
    lens = end - start
    merged = np.concatenate([np.asarray(s, dtype=np.int64) for s in streams])
    # Output access k of chunk r comes from merged[offset of thread r +
    # start_r + (k - first output index of chunk r)].
    shift = (np.cumsum(sizes) - sizes)[thread] + start - (np.cumsum(lens) - lens)
    index = np.arange(int(lens.sum()), dtype=np.int64)
    index += np.repeat(shift, lens)
    return merged[index], np.repeat(thread, lens)


def pass_scale(stream_len: int, accesses: int) -> float:
    """Factor normalizing a thread's co-run counts to one pass of its stream.

    ``accesses`` is what the thread issued, wrapped passes included; an
    empty stream issues nothing and scales to 0.0.
    """
    return stream_len / accesses if accesses else 0.0


def simulate_shared(
    streams: list[np.ndarray],
    cfg: CacheConfig,
    *,
    quantum: int = 8,
    prefetch: bool = False,
) -> list[SharedCacheStats]:
    """Co-run ``streams`` in one shared cache; returns per-thread stats.

    ``quantum`` is the number of consecutive line accesses a thread issues
    before yielding (SMT fetch granularity).  With ``prefetch`` the shared
    next-line prefetcher runs for all threads (as on real SMT cores, where
    the L1I prefetcher is a shared resource); each pending prefetched line
    remembers its issuing thread so consumption is attributed self vs.
    cross (see :class:`SharedCacheStats`).  Without it, the per-thread
    misses come from one labelled stack-distance sweep and the prefetch
    counters are 0.
    """
    lines, threads = interleave(streams, quantum)
    if prefetch:
        return run_lru(lines, cfg, prefetch, threads, len(streams))
    accesses = np.bincount(threads, minlength=len(streams))
    misses = thread_misses(lines, threads, len(streams), cfg.n_sets, cfg.assoc)
    return [
        SharedCacheStats(accesses=a, misses=m)
        for a, m in zip(accesses.tolist(), misses.tolist())
    ]
