"""Temporal Relationship Graph construction (paper Sec. II-C, Def. 6).

The TRG is a weighted undirected graph over code blocks.  The weight of
edge (X, Y) counts *potential conflicts*: the number of times two
successive occurrences of one block are interleaved by at least one
occurrence of the other (Gloy & Smith's temporal-ordering information).

Construction runs a bounded LRU stack over the trimmed trace: when X is
re-accessed and found at stack depth d, the d-1 distinct blocks above it
are exactly those that occurred between X's two successive occurrences —
each of their edges to X gains one conflict.  The stack capacity bounds the
examined window: Gloy & Smith recommend a window of **twice** the cache
size, so the default capacity is ``2 * C / S`` blocks for uniform block
size S (the paper keeps the uniform-size assumption because its compiler
sees IR, not binary sizes).  A reuse that spans more than the window is a
certain miss regardless of layout, so it records no conflicts.

Complexity: O(N * Q) for trace length N and stack capacity Q, matching the
paper's statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..cache.config import CacheConfig
from ..trace.stack import LRUStack
from ..trace.trim import trim

__all__ = ["TRG", "build_trg", "trg_window_blocks", "uniform_block_slots"]


@dataclass
class TRG:
    """Weighted undirected conflict graph."""

    #: edge weights, keyed by (min(x, y), max(x, y)).
    weights: dict[tuple[int, int], int] = field(default_factory=dict)
    #: every block observed in the trace, by first occurrence.
    nodes: list[int] = field(default_factory=list)

    def weight(self, x: int, y: int) -> int:
        if x == y:
            return 0
        key = (x, y) if x < y else (y, x)
        return self.weights.get(key, 0)

    def add_conflict(self, x: int, y: int, amount: int = 1) -> None:
        if amount <= 0:
            raise ValueError(f"conflict amount must be positive, got {amount}")
        key = (x, y) if x < y else (y, x)
        self.weights[key] = self.weights.get(key, 0) + amount

    @property
    def n_edges(self) -> int:
        return len(self.weights)


def trg_window_blocks(cfg: CacheConfig, block_size: int, factor: float = 2.0) -> int:
    """Stack capacity (in blocks) for the Gloy-Smith window of ``factor * C``.

    ``factor`` may be fractional — the window-sensitivity ablation sweeps
    sub-capacity windows to expose the model's fragility.
    """
    if block_size <= 0:
        raise ValueError("block size must be positive")
    if factor <= 0:
        raise ValueError("window factor must be positive")
    return max(1, int(factor * cfg.size_bytes) // block_size)


def uniform_block_slots(cfg: CacheConfig, block_size: int) -> int:
    """Number of code slots K under the uniform-block-size assumption.

    A block of size S occupies ``ceil(S / (A*B))`` cache sets out of
    ``C / (A*B)`` total, giving ``(C/(A*B)) / ceil(S/(A*B))`` slots
    (paper Sec. II-C).
    """
    if block_size <= 0:
        raise ValueError("block size must be positive")
    set_bytes = cfg.assoc * cfg.line_bytes
    sets_total = cfg.size_bytes // set_bytes
    sets_per_block = -(-block_size // set_bytes)  # ceil
    return max(1, sets_total // sets_per_block)


def build_trg(trace: np.ndarray, window_blocks: Optional[int] = None) -> TRG:
    """Construct the TRG of a (trimmed) block trace.

    ``window_blocks`` bounds the co-occurrence window in distinct blocks;
    ``None`` means unbounded (every reuse records its interleavings).
    """
    t = trim(np.asarray(trace))
    trg = TRG()
    seen: set[int] = set()
    stack = LRUStack(capacity=window_blocks)
    add = trg.add_conflict
    for x in t.tolist():
        if x not in seen:
            seen.add(x)
            trg.nodes.append(x)
        between = stack.walk_until(x, limit=window_blocks)
        if between is not None:
            for y in between:
                add(x, y)
        stack.touch(x)
    return trg
