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
from .policies import POLICIES, FIFOSet, LRUSet, RandomSet, TreePLRUSet, make_policy
from .setassoc import CacheState, simulate, simulate_policy, warm_cache
from .shared import SharedCacheStats, simulate_shared
from .stats import CacheStats

__all__ = [
    "DistanceHistogram",
    "FIFOSet",
    "HierarchyConfig",
    "HierarchyStats",
    "PAPER_HIERARCHY",
    "LRUSet",
    "PAPER_L1I",
    "POLICIES",
    "CacheConfig",
    "CacheState",
    "CacheStats",
    "RandomSet",
    "SharedCacheStats",
    "TreePLRUSet",
    "fenwick_histogram",
    "make_policy",
    "simulate",
    "simulate_hierarchy",
    "simulate_hierarchy_shared",
    "simulate_policy",
    "simulate_shared",
    "stack_distance_histogram",
    "warm_cache",
]
