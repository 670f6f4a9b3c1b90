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

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ..cache.config import CacheConfig
from ..trace.stack import LRUStack
from ..trace.trim import trim
from .affinity import in_pair_order, pair_row, read_only

__all__ = ["TRG", "build_trg", "trg_window_blocks", "uniform_block_slots"]


@dataclass(eq=False)
class TRG:
    """Weighted undirected conflict graph, as one sorted edge list.

    All three fields are read-only int64 arrays, so one graph may be
    handed to any number of readers (the memo keeps and returns it).
    """

    #: every block of the trace, by first occurrence.
    nodes: np.ndarray
    #: ``(E, 2)`` rows ``(x, y)``, one per conflicting pair, ``x < y``,
    #: sorted by ``(x, y)``.
    edges: np.ndarray
    #: ``(E,)`` positive conflict counts, parallel to ``edges``.
    weights: np.ndarray

    #: the entry kind, and what :meth:`to_arrays` emits: name -> (dtype
    #: kind, shape), with ``None`` for an axis of any length.
    KIND = "trg"
    ARRAYS = {"kind": ("U", ()), "nodes": ("i", (None,)), "edges": ("i", (None, 2)),
              "weights": ("i", (None,))}

    def __post_init__(self):
        self.nodes = read_only(self.nodes)
        self.edges = read_only(self.edges).reshape(-1, 2)
        self.weights = read_only(self.weights)

    @classmethod
    def from_weights(cls, nodes, weights: Mapping[tuple[int, int], int]) -> "TRG":
        """The graph of ``{(x, y): conflicts}`` with ``x < y``, put in
        ``(x, y)`` order and checked as :meth:`from_arrays` checks."""
        edges = np.array(list(weights), dtype=np.int64).reshape(-1, 2)
        w = np.fromiter(weights.values(), np.int64, len(weights))
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        return cls.from_arrays(dict(kind=np.array(cls.KIND), nodes=np.asarray(nodes),
                                    edges=edges[order], weights=w[order]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TRG):
            return NotImplemented
        pairs = zip(self.to_arrays().values(), other.to_arrays().values())
        return all(np.array_equal(a, b) for a, b in pairs)

    def weight(self, x: int, y: int) -> int:
        """The conflict count of ``{x, y}`` (0 without an edge)."""
        row = pair_row(self.edges, min(x, y), max(x, y))
        return int(self.weights[row]) if row >= 0 else 0

    @property
    def n_edges(self) -> int:
        return int(self.weights.shape[0])

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Named arrays (memo entries): the three arrays plus the kind."""
        return dict(kind=np.array(self.KIND), nodes=self.nodes, edges=self.edges,
                    weights=self.weights)

    @classmethod
    def from_arrays(cls, raw: dict) -> "TRG":
        """Inverse of :meth:`to_arrays`, which only validates: the arrays
        become the graph's.  Raises ``ValueError`` on malformed payloads
        (a repeated node, an edge not ``x < y``, edges not strictly
        increasing, a weight not positive, an endpoint not listed, edges
        and weights of unequal length) so memo corruption degrades to
        recomputation."""
        if str(raw["kind"]) != cls.KIND:
            raise ValueError(f"not a TRG payload: kind={str(raw['kind'])!r}")
        nodes, edges, w = raw["nodes"], raw["edges"], raw["weights"]
        if np.unique(nodes).shape != nodes.shape:
            raise ValueError("TRG payload repeats a node")
        if edges.ndim != 2 or edges.shape[1] != 2 or w.shape != (edges.shape[0],):
            raise ValueError(
                f"TRG edges {edges.shape} and weights {w.shape} are not (E, 2) and (E,)"
            )
        bad = (edges[:, 0] >= edges[:, 1]) | (w <= 0) | ~np.isin(edges, nodes).all(axis=1)
        if bad.any() or not in_pair_order(edges):
            raise ValueError("TRG payload has an edge that is not a new x < y edge "
                             "of positive weight between listed nodes, in (x, y) order")
        return cls(nodes, edges, w)


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
    nodes: list[int] = []
    weights: dict[tuple[int, int], int] = {}
    seen: set[int] = set()
    stack = LRUStack(capacity=window_blocks)
    for x in t.tolist():
        if x not in seen:
            seen.add(x)
            nodes.append(x)
        between = stack.walk_until(x, limit=window_blocks)
        if between is not None:
            for y in between:
                key = (x, y) if x < y else (y, x)
                weights[key] = weights.get(key, 0) + 1
        stack.touch(x)
    return TRG.from_weights(nodes, weights)
