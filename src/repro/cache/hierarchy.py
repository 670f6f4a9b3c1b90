"""Two-level cache hierarchy: split L1 (I + D) over a unified L2.

Backs the paper's Eq. 1 — ``P(self.miss) = P(self.FP.(inst+data) +
peer.FP.(inst+data) >= C)`` — where instruction and data footprints
compete in the *unified* cache.  The modeled hierarchy follows the
evaluation machine (Xeon E5520): 32 KB/4-way L1I, 32 KB/8-way L1D, and a
256 KB/8-way unified L2, with all three shared by the two hyper-threads
of a core.

The simulators consume the merged instruction+data streams of
:func:`repro.engine.datastream.merged_stream`: every access probes its L1
(by the ``is_data`` tag); L1 misses probe the L2.  All three levels are
cold, prefetch-free true-LRU caches, so each level's misses follow from
stack distances alone (``docs/algorithms.md``, "Two-level hierarchy").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import CacheConfig
from .fastsim import miss_labels
from .shared import interleave
from .stats import CacheStats

__all__ = [
    "HierarchyConfig",
    "HierarchyStats",
    "PAPER_HIERARCHY",
    "simulate_hierarchy",
    "simulate_hierarchy_shared",
]


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry of the two-level hierarchy."""

    l1i: CacheConfig = CacheConfig(32 * 1024, 4, 64)
    l1d: CacheConfig = CacheConfig(32 * 1024, 8, 64)
    l2: CacheConfig = CacheConfig(256 * 1024, 8, 64)


#: the evaluation machine's per-core hierarchy.
PAPER_HIERARCHY = HierarchyConfig()


@dataclass
class HierarchyStats:
    """Per-level statistics of one thread."""

    l1i: CacheStats = field(default_factory=CacheStats)
    l1d: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)

    @property
    def l2_miss_ratio_per_access(self) -> float:
        """L2 misses per L1 (I+D) access — the unified-cache pressure."""
        total = self.l1i.accesses + self.l1d.accesses
        return self.l2.misses / total if total else 0.0


def simulate_hierarchy(
    lines: np.ndarray, is_data: np.ndarray, cfg: HierarchyConfig = PAPER_HIERARCHY
) -> HierarchyStats:
    """Run one merged stream through the two-level hierarchy (solo).

    A solo run is a co-run of one thread: its issue order is the stream.
    """
    [stats] = simulate_hierarchy_shared([(lines, is_data)], cfg)
    return stats


def simulate_hierarchy_shared(
    streams: list[tuple[np.ndarray, np.ndarray]],
    cfg: HierarchyConfig = PAPER_HIERARCHY,
    *,
    quantum: int = 8,
) -> list[HierarchyStats]:
    """SMT co-run through one shared hierarchy (L1I, L1D and L2 are all
    per-core and therefore shared by the hyper-threads).

    Threads issue in the order of :func:`repro.cache.shared.interleave`,
    as in :func:`repro.cache.shared.simulate_shared`; per-thread stats
    cover all issued accesses.  Every level is a cold, prefetch-free LRU
    cache, so each is one :func:`repro.cache.fastsim.miss_labels` sweep
    labelled with stream positions: L1I over the instruction accesses,
    L1D over the data accesses, and L2 over the L1 misses in issue order.
    """
    for lines, is_data in streams:
        if lines.shape != is_data.shape:
            raise ValueError("lines and is_data must align")
    lines, threads = interleave([s[0] for s in streams], quantum)
    is_data = interleave([s[1] for s in streams], quantum)[0].astype(bool)

    def level(at: np.ndarray, c: CacheConfig) -> tuple[list[CacheStats], np.ndarray]:
        """Per-thread stats of the accesses at positions ``at`` in a
        ``c`` cache, and the positions that missed."""
        missed = miss_labels(lines[at], c.n_sets, c.assoc, at)
        accesses = np.bincount(threads[at], minlength=len(streams)).tolist()
        misses = np.bincount(threads[missed], minlength=len(streams)).tolist()
        return [CacheStats(a, m) for a, m in zip(accesses, misses)], missed

    l1i, i_missed = level(np.flatnonzero(~is_data), cfg.l1i)
    l1d, d_missed = level(np.flatnonzero(is_data), cfg.l1d)
    l2, _ = level(np.sort(np.concatenate([i_missed, d_missed])), cfg.l2)
    return [HierarchyStats(*stats) for stats in zip(l1i, l1d, l2)]
