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
stream.

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

from typing import Iterator, Sequence

import numpy as np

from .config import CacheConfig
from .setassoc import run_lru
from .stats import SharedCacheStats

__all__ = ["SharedCacheStats", "issue_order", "pass_scale", "simulate_shared"]


def issue_order(lengths: Sequence[int], quantum: int) -> Iterator[tuple[int, int, int]]:
    """Round-robin SMT issue order over streams of ``lengths``.

    Yields ``(thread, start, end)`` chunks of at most ``quantum``
    accesses.  Each round visits every non-empty thread once, in thread
    order; a thread that reaches its end restarts at 0.  The order ends
    with the round in which the last thread completes its first pass.
    """
    if quantum < 1:
        raise ValueError("quantum must be >= 1")
    active = [t for t, n in enumerate(lengths) if n > 0]
    cursors = [0] * len(lengths)
    unfinished = set(active)
    while unfinished:
        for t in active:
            start = cursors[t]
            end = min(start + quantum, lengths[t])
            yield t, start, end
            if end == lengths[t]:
                unfinished.discard(t)
                end = 0
            cursors[t] = end


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
    cross (see :class:`SharedCacheStats`).
    """
    chunks = issue_order([len(s) for s in streams], quantum)
    return run_lru(streams, chunks, cfg, prefetch)
