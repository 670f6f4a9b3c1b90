"""Reference LRU set loops for the miss counts that
:func:`repro.cache.fastsim.miss_labels` answers with one stack-distance
sweep: the two-level hierarchy (split L1 over a unified L2, solo and
shared) and the per-line miss attribution.

They replay the cache access by access, one Python list per set with the
most recently used line first, so the property tests can pin the
production sweeps to them counter for counter.  The shared hierarchy
issues in the round-robin generator of ``tests/cache/shared_oracle.py``,
not the production closed form.
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import PAPER_HIERARCHY, HierarchyConfig, HierarchyStats

from .shared_oracle import issue_order


class LRUCache:
    """Minimal true-LRU set-associative cache, cold at start."""

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


def run_two_level(
    lines: list[int],
    is_data: list[bool],
    l1i: LRUCache,
    l1d: LRUCache,
    l2: LRUCache,
    stats: HierarchyStats,
) -> None:
    """Issue ``lines`` through the hierarchy: every access probes its L1
    (by its ``is_data`` flag), every L1 miss probes the L2."""
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
    """One merged stream through the two-level hierarchy (solo)."""
    stats = HierarchyStats()
    run_two_level(
        lines.tolist(),
        is_data.tolist(),
        LRUCache(cfg.l1i),
        LRUCache(cfg.l1d),
        LRUCache(cfg.l2),
        stats,
    )
    return stats


def simulate_hierarchy_shared(
    streams: list[tuple[np.ndarray, np.ndarray]],
    cfg: HierarchyConfig = PAPER_HIERARCHY,
    *,
    quantum: int = 8,
) -> list[HierarchyStats]:
    """SMT co-run through one shared hierarchy, one quantum at a time.

    Streams wrap until every thread has completed at least one pass;
    per-thread stats cover all issued accesses.
    """
    data = [(lines.tolist(), is_data.tolist()) for lines, is_data in streams]
    stats = [HierarchyStats() for _ in data]
    l1i, l1d, l2 = LRUCache(cfg.l1i), LRUCache(cfg.l1d), LRUCache(cfg.l2)
    for t, start, end in issue_order([len(d[0]) for d in data], quantum):
        lines_t, is_data_t = data[t]
        run_two_level(lines_t[start:end], is_data_t[start:end], l1i, l1d, l2, stats[t])
    return stats


def per_line_misses(lines: np.ndarray, cfg: CacheConfig) -> dict[int, int]:
    """LRU miss count per line (cold included) by a naive per-set stack
    walk; lines that never miss are absent."""
    misses: dict[int, int] = {}
    stacks: dict[int, list[int]] = {}
    for line in np.asarray(lines, dtype=np.int64).tolist():
        stack = stacks.setdefault(line & (cfg.n_sets - 1), [])
        if line in stack:
            d = stack.index(line)
            stack.insert(0, stack.pop(d))
            if d < cfg.assoc:
                continue
        else:
            stack.insert(0, line)
        misses[line] = misses.get(line, 0) + 1
    return misses
