"""Event-driven set-associative LRU cache simulation.

This is the reproduction's stand-in for the paper's Pin-based instruction
cache simulator.  It consumes the line-index streams produced by
:mod:`repro.engine.fetch` and reports :class:`~repro.cache.stats.CacheStats`.

Replacement is true LRU per set.  An optional *next-line prefetcher* models
the dominant hardware effect the paper credits for the gap between
hardware-counter and simulator miss reductions: on every demand miss of
line ``L``, line ``L+1`` is installed as well (tagged prefetch).  The clean
simulator channel runs with ``prefetch=False``; the hardware-counter channel
(:mod:`repro.machine.counters`) runs with ``prefetch=True``.

:func:`run_lru` is the one set loop: a solo run (:func:`simulate`) is a
single chunk of one stream, a co-run (:func:`repro.cache.shared.simulate_shared`)
is the SMT issue order over several.

Implementation note: LRU is not vectorizable, so this is a deliberately
tight Python loop — per-set Python lists with C-speed ``list.index`` /
``insert`` / ``pop``, stream pre-converted via ``tolist()``.  Profiled at
roughly 2M accesses/second, which keeps the full benchmark matrix in
minutes (HPC guide: measure first; optimize the measured bottleneck).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .config import CacheConfig
from .stats import CacheStats, SharedCacheStats

__all__ = ["run_lru", "simulate", "simulate_policy"]


def run_lru(
    streams: Sequence[np.ndarray],
    chunks: Iterable[tuple[int, int, int]],
    cfg: CacheConfig,
    prefetch: bool,
) -> list[SharedCacheStats]:
    """Issue ``chunks`` of ``streams`` through one LRU cache, cold at start.

    Each chunk ``(t, start, end)`` runs ``streams[t][start:end]`` as
    thread ``t``; returns one :class:`SharedCacheStats` per stream.  With
    ``prefetch`` the next-line prefetcher is one resource shared by all
    threads: each pending prefetched line remembers its issuing thread,
    so a consumed prefetch counts as self or cross help.
    """
    lists = [s.tolist() if isinstance(s, np.ndarray) else list(s) for s in streams]
    stats = [SharedCacheStats() for _ in lists]
    sets: list[list[int]] = [[] for _ in range(cfg.n_sets)]
    #: pending prefetched line -> thread that issued the prefetch.
    prefetched: dict[int, int] = {}
    mask = cfg.n_sets - 1
    assoc = cfg.assoc

    for t, start, end in chunks:
        st = stats[t]
        misses = 0
        for line in lists[t][start:end]:
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
                    # A tagged prefetch must never evict the demand line
                    # that triggered it.  That is only possible when L and
                    # L+1 map to the same set (n_sets == 1) and L sits in
                    # the victim way (assoc == 1) — degenerate geometry,
                    # but silently re-missing the demand line corrupted
                    # miss counts there.
                    if nxt not in ns and not (len(ns) >= assoc and ns[-1] == line):
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
        st.accesses += end - start
        st.misses += misses
    return stats


def simulate(lines: np.ndarray, cfg: CacheConfig, *, prefetch: bool = False) -> CacheStats:
    """Run ``lines`` through a cold set-associative LRU cache.

    Parameters
    ----------
    lines: int array of line indices (byte address // line size).
    cfg: cache geometry.
    prefetch: enable the next-line prefetcher.
    """
    [st] = run_lru([lines], [(0, 0, len(lines))], cfg, prefetch)
    return CacheStats(st.accesses, st.misses, st.prefetches, st.prefetch_hits)


def simulate_policy(
    lines: np.ndarray, cfg: CacheConfig, policy: str = "lru", seed: int = 0
) -> CacheStats:
    """Simulate under an alternative replacement policy (no prefetcher).

    Slower than :func:`simulate` (polymorphic per-set objects instead of
    the tuned LRU loop); used by the replacement-policy ablation.  With
    ``policy="lru"`` the miss counts match :func:`simulate` exactly, which
    the test suite verifies.
    """
    from .policies import make_policy

    sets = [make_policy(policy, cfg.assoc, seed + i) for i in range(cfg.n_sets)]
    mask = cfg.n_sets - 1
    stats = CacheStats()
    misses = 0
    stream = lines.tolist() if isinstance(lines, np.ndarray) else list(lines)
    for line in stream:
        if not sets[line & mask].lookup(line):
            misses += 1
    stats.accesses = len(stream)
    stats.misses = misses
    return stats
