"""Event-driven set-associative LRU cache simulation.

This is the reproduction's stand-in for the paper's Pin-based instruction
cache simulator.  It consumes the line-index streams produced by
:mod:`repro.engine.fetch` and reports :class:`~repro.cache.stats.CacheStats`.

Replacement is true LRU per set.  An optional *next-line prefetcher* models
the dominant hardware effect the paper credits for the gap between
hardware-counter and simulator miss reductions: on every demand miss of
line ``L``, line ``L+1`` is installed as well (tagged prefetch).  The
hardware-counter channel (:mod:`repro.machine.counters`) runs with
``prefetch=True``.  Solo clean-channel misses come from the stack-distance
kernel (:mod:`repro.cache.fastsim`), parity-gated bit-identical to
``simulate(prefetch=False)``, which stays its oracle.

:func:`run_lru` is the one set loop.  It makes one flat pass over a
stream of lines labelled with the thread that issued each one: a solo run
(:func:`simulate`) is a single unlabelled stream, a co-run
(:func:`repro.cache.shared.simulate_shared`) the SMT issue order of
several, expanded by :func:`repro.cache.shared.interleave`.

Implementation note: LRU with a prefetcher is not vectorizable, so this
is a deliberately tight Python loop over per-set Python lists, the stream
pre-converted via ``tolist()``.  Every set always holds ``assoc`` entries
(``None`` for an empty way) and a line with a pending prefetch tag is held
as ``~line``, so a hit at MRU costs one compare (``docs/algorithms.md``
§5 has the argument).  Measured on a 2-core
Linux VM at about 10 M issued accesses/second solo and 6 M on a
prefetching co-run (``syn-gcc`` with ``syn-gamess``, scale 0.25).
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .config import CacheConfig
from .stats import CacheStats, SharedCacheStats

__all__ = ["run_lru", "simulate"]


def run_lru(
    lines: np.ndarray,
    cfg: CacheConfig,
    prefetch: bool,
    threads: np.ndarray | None = None,
    n_threads: int = 1,
) -> list[SharedCacheStats]:
    """Issue ``lines`` through one LRU cache, cold at start.

    ``threads[i]`` names the thread (in ``[0, n_threads)``) that issued
    ``lines[i]``; without ``threads`` every access is thread 0's.
    Returns one :class:`SharedCacheStats` per thread.  With ``prefetch``
    the next-line prefetcher is one resource shared by all threads: each
    pending prefetched line remembers its issuing thread, so a consumed
    prefetch counts as self or cross help.  Lines must be ``>= 0``.
    """
    lines = np.asarray(lines)
    if lines.shape[0] and lines.min() < 0:
        raise ValueError("line indices must be >= 0")
    if threads is None:
        accesses = [lines.shape[0]]
    else:
        accesses = np.bincount(threads, minlength=n_threads).tolist()
    labels = repeat(0) if threads is None else threads.tolist()
    misses = [0] * n_threads
    prefetches = [0] * n_threads
    hits_self = [0] * n_threads
    hits_cross = [0] * n_threads
    # Full sets, MRU first: ``None`` is an empty way and ``~line`` a
    # line with a pending prefetch tag; neither equals any line.
    sets: list[list[int | None]] = [[None] * cfg.assoc for _ in range(cfg.n_sets)]
    #: line -> thread of its latest prefetch, read only while ``~line`` is cached.
    issuer: dict[int, int] = {}
    mask = cfg.n_sets - 1

    for line, t in zip(lines.tolist(), labels):
        s = sets[line & mask]
        if s[0] == line:
            continue
        if line in s:
            s.remove(line)
            s.insert(0, line)
            continue
        if prefetch and ~line in s:
            s.remove(~line)
            s.insert(0, line)
            if issuer[line] == t:
                hits_self[t] += 1
            else:
                hits_cross[t] += 1
            continue
        misses[t] += 1
        s.insert(0, line)
        s.pop()
        if prefetch:
            nxt = line + 1
            ns = sets[nxt & mask]
            # Never evict the demand line that triggered the prefetch:
            # with one set and one way, L+1 would take L's only way.
            if ns[-1] != line and nxt not in ns and ~nxt not in ns:
                prefetches[t] += 1
                issuer[nxt] = t
                ns.insert(0, ~nxt)
                ns.pop()
    return [
        SharedCacheStats(
            accesses=accesses[t],
            misses=misses[t],
            prefetches=prefetches[t],
            prefetch_hits=hits_self[t] + hits_cross[t],
            prefetch_hits_self=hits_self[t],
            prefetch_hits_cross=hits_cross[t],
        )
        for t in range(n_threads)
    ]


def simulate(lines: np.ndarray, cfg: CacheConfig, *, prefetch: bool = False) -> CacheStats:
    """Run ``lines`` through a cold set-associative LRU cache.

    Parameters
    ----------
    lines: int array of line indices (byte address // line size).
    cfg: cache geometry.
    prefetch: enable the next-line prefetcher.
    """
    [st] = run_lru(lines, cfg, prefetch)
    return CacheStats(st.accesses, st.misses, st.prefetches, st.prefetch_hits)
