"""Trace toolkit: trimming, pruning, phases, stack processing."""

from .phases import Phase, detect_phases, phase_distance
from .prune import PruneResult, popularity, prune_top_k
from .stack import LRUStack
from .trim import is_trimmed, trim, trim_with_counts

__all__ = [
    "LRUStack",
    "Phase",
    "PruneResult",
    "is_trimmed",
    "detect_phases",
    "phase_distance",
    "popularity",
    "prune_top_k",
    "trim",
    "trim_with_counts",
]
