"""Cache simulation statistics."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheStats", "SharedCacheStats"]


@dataclass
class CacheStats:
    """Access/miss counters for one thread's view of a cache simulation.

    ``accesses`` counts cache-line lookups (the simulator's unit of work);
    hardware-style miss *ratios* over instructions are computed by
    :mod:`repro.machine.counters`, which knows the instruction counts.
    """

    accesses: int = 0
    misses: int = 0
    #: lines installed by the prefetcher (0 without prefetching).
    prefetches: int = 0
    #: demand misses avoided because a prefetched line was present.
    prefetch_hits: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses per line access (0.0 for an empty run)."""
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class SharedCacheStats(CacheStats):
    """One thread's view of a shared-cache co-run.

    Extends :class:`CacheStats` with the issuer-aware prefetch split:
    ``prefetches`` counts prefetches this thread *issued* (its demand
    misses triggered them); ``prefetch_hits`` counts prefetched lines
    this thread *consumed*, split into ``prefetch_hits_self`` (it issued
    the prefetch itself) and ``prefetch_hits_cross`` (a co-running peer
    issued it).  Invariant: ``prefetch_hits == prefetch_hits_self +
    prefetch_hits_cross``, pinned by the test suite.
    """

    #: consumed prefetched lines this thread also issued (self-help).
    prefetch_hits_self: int = 0
    #: consumed prefetched lines a peer thread issued (peer-help received).
    prefetch_hits_cross: int = 0
