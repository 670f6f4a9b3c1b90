"""Two-level cache hierarchy: split L1 (I + D) over a unified L2.

Backs the paper's Eq. 1 — ``P(self.miss) = P(self.FP.(inst+data) +
peer.FP.(inst+data) >= C)`` — where instruction and data footprints
compete in the *unified* cache.  The modeled hierarchy follows the
evaluation machine (Xeon E5520): 32 KB/4-way L1I, 32 KB/8-way L1D, and a
256 KB/8-way unified L2, with all three shared by the two hyper-threads
of a core.

The simulators consume the merged instruction+data streams of
:func:`repro.engine.datastream.merged_stream`: every access probes its L1
(by the ``is_data`` tag); L1 misses probe the L2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import CacheConfig
from .shared import issue_order
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


class _Cache:
    """Minimal true-LRU set-associative cache used by the hierarchy."""

    __slots__ = ("sets", "mask", "assoc")

    def __init__(self, cfg: CacheConfig):
        self.sets: list[list[int]] = [[] for _ in range(cfg.n_sets)]
        self.mask = cfg.n_sets - 1
        self.assoc = cfg.assoc

    def lookup(self, line: int) -> bool:
        s = self.sets[line & self.mask]
        try:
            i = s.index(line)
        except ValueError:
            s.insert(0, line)
            if len(s) > self.assoc:
                s.pop()
            return False
        if i:
            s.insert(0, s.pop(i))
        return True


def _run(
    lines: list[int],
    is_data: list[bool],
    l1i: _Cache,
    l1d: _Cache,
    l2: _Cache,
    stats: HierarchyStats,
) -> None:
    for line, d in zip(lines, is_data):
        if d:
            st = stats.l1d
            hit = l1d.lookup(line)
        else:
            st = stats.l1i
            hit = l1i.lookup(line)
        st.accesses += 1
        if hit:
            continue
        st.misses += 1
        stats.l2.accesses += 1
        if not l2.lookup(line):
            stats.l2.misses += 1


def simulate_hierarchy(
    lines: np.ndarray, is_data: np.ndarray, cfg: HierarchyConfig = PAPER_HIERARCHY
) -> HierarchyStats:
    """Run one merged stream through the two-level hierarchy (solo)."""
    if lines.shape != is_data.shape:
        raise ValueError("lines and is_data must align")
    stats = HierarchyStats()
    _run(
        lines.tolist(),
        is_data.tolist(),
        _Cache(cfg.l1i),
        _Cache(cfg.l1d),
        _Cache(cfg.l2),
        stats,
    )
    return stats


def simulate_hierarchy_shared(
    streams: list[tuple[np.ndarray, np.ndarray]],
    cfg: HierarchyConfig = PAPER_HIERARCHY,
    *,
    quantum: int = 8,
) -> list[HierarchyStats]:
    """SMT co-run through one shared hierarchy (L1I, L1D and L2 are all
    per-core and therefore shared by the hyper-threads).

    Threads issue in :func:`repro.cache.shared.issue_order`, as in
    :func:`repro.cache.shared.simulate_shared`; per-thread stats cover all
    issued accesses.
    """
    data = []
    for lines, is_data in streams:
        if lines.shape != is_data.shape:
            raise ValueError("lines and is_data must align")
        data.append((lines.tolist(), is_data.tolist()))
    stats = [HierarchyStats() for _ in data]
    l1i, l1d, l2 = _Cache(cfg.l1i), _Cache(cfg.l1d), _Cache(cfg.l2)
    for t, start, end in issue_order([len(d[0]) for d in data], quantum).tolist():
        lines_t, is_data_t = data[t]
        _run(lines_t[start:end], is_data_t[start:end], l1i, l1d, l2, stats[t])
    return stats
