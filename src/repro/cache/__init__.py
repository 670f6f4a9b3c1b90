"""Cache simulators: solo set-associative LRU, shared SMT co-run, prefetch,
and the exact stack-distance kernel answering all associativities at once."""

from .config import PAPER_L1I, CacheConfig
from .fastsim import (
    DistanceHistogram,
    fenwick_histogram,
    stack_distance_histogram,
)
from .hierarchy import (
    PAPER_HIERARCHY,
    HierarchyConfig,
    HierarchyStats,
    simulate_hierarchy,
    simulate_hierarchy_shared,
)
from .setassoc import simulate
from .shared import simulate_shared
from .stats import CacheStats, SharedCacheStats

__all__ = [
    "DistanceHistogram",
    "HierarchyConfig",
    "HierarchyStats",
    "PAPER_HIERARCHY",
    "PAPER_L1I",
    "CacheConfig",
    "CacheStats",
    "SharedCacheStats",
    "fenwick_histogram",
    "simulate",
    "simulate_hierarchy",
    "simulate_hierarchy_shared",
    "simulate_shared",
    "stack_distance_histogram",
]
