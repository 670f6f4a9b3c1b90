"""Reference co-run simulator: the hand-rolled round-robin loop that
:func:`repro.cache.shared.simulate_shared` replaced with one set loop
(:func:`repro.cache.setassoc.run_lru`), one stack-distance sweep
(:func:`repro.cache.fastsim.thread_misses`) and one closed-form issue
order (:func:`repro.cache.shared.issue_order`), plus the round-robin
generator that closed form replaced (:func:`issue_order`).  The shared
two-level hierarchy's loop lives in ``tests/cache/two_level_oracle.py``.

Kept verbatim so the property tests can pin the production simulators to
them, counter for counter.  ``wrap=False`` is the oracle's own knob; the
production simulators always wrap.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.stats import SharedCacheStats


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


def simulate_shared(
    streams: list[np.ndarray],
    cfg: CacheConfig,
    *,
    quantum: int = 8,
    wrap: bool = True,
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
    n_threads = len(streams)
    if n_threads == 0:
        return []
    if quantum < 1:
        raise ValueError("quantum must be >= 1")

    lists = [
        s.tolist() if isinstance(s, np.ndarray) else list(s) for s in streams
    ]
    lengths = [len(s) for s in lists]
    stats = [SharedCacheStats() for _ in range(n_threads)]
    # Threads with empty streams are complete from the start.
    done = [n == 0 for n in lengths]
    cursors = [0] * n_threads

    sets: list[list[int]] = [[] for _ in range(cfg.n_sets)]
    #: pending prefetched line -> thread that issued the prefetch.
    prefetched: dict[int, int] = {}
    mask = cfg.n_sets - 1
    assoc = cfg.assoc

    active = [t for t in range(n_threads) if lengths[t] > 0]
    while not all(done):
        progressed = False
        for t in active:
            stream = lists[t]
            n = lengths[t]
            if n == 0:
                continue
            st = stats[t]
            pos = cursors[t]
            end = min(pos + quantum, n)
            accesses = 0
            misses = 0
            for k in range(pos, end):
                line = stream[k]
                accesses += 1
                s = sets[line & mask]
                try:
                    i = s.index(line)
                except ValueError:
                    misses += 1
                    s.insert(0, line)
                    if len(s) > assoc:
                        prefetched.pop(s.pop(), None)
                    if prefetch:
                        nxt = line + 1
                        ns = sets[nxt & mask]
                        # Never let the prefetch evict its own demand
                        # line (single-set, single-way geometry); same
                        # guard as the solo simulator.
                        if nxt not in ns and not (
                            len(ns) >= assoc and ns[-1] == line
                        ):
                            st.prefetches += 1
                            prefetched[nxt] = t
                            ns.insert(0, nxt)
                            if len(ns) > assoc:
                                prefetched.pop(ns.pop(), None)
                    continue
                if i:
                    s.insert(0, s.pop(i))
                if prefetch and line in prefetched:
                    issuer = prefetched.pop(line)
                    st.prefetch_hits += 1
                    if issuer == t:
                        st.prefetch_hits_self += 1
                    else:
                        st.prefetch_hits_cross += 1
            st.accesses += accesses
            st.misses += misses
            progressed = progressed or accesses > 0
            if end >= n:
                done[t] = True
                if wrap and not all(done):
                    cursors[t] = 0
                else:
                    cursors[t] = n
                    if not wrap:
                        # Thread leaves the core; stop issuing for it.
                        lengths[t] = 0
            else:
                cursors[t] = end
        if not progressed:  # pragma: no cover - guards infinite loops
            break
    return stats
