"""Trace toolkit: trimming, pruning, stack processing."""

from .prune import PruneResult, popularity, prune_top_k
from .stack import LRUStack
from .trim import trim

__all__ = [
    "LRUStack",
    "PruneResult",
    "popularity",
    "prune_top_k",
    "trim",
]
