"""TRG reduction (paper Algorithm 2): conflict-driven slot assignment.

The paper adapts Gloy & Smith's placement into a pure *reordering*: the
cache is viewed as K code slots (:func:`repro.core.trg.uniform_block_slots`)
and blocks are assigned to slots heaviest-conflict-edge first:

1. take the edges once each in a fixed order, heaviest first with ties on
   the ascending node pair; an edge places whichever endpoints are still
   unplaced, x before y, so a block is placed by its first edge in that
   order and the pass ends once every block with an edge is placed;
2. an unplaced endpoint picks the first *empty* slot if one exists,
   otherwise the slot whose merged residents have the **least** summed
   conflict weight with it — slots with *no recorded edge* are not
   candidates (no temporal relation means no information; this matches the
   paper's worked example, Fig. 2, where C joins E's slot despite their
   30-weight edge because C has no edges to the other slots);
3. the placed block merges into its slot: the slot's weight to every
   other block grows by the block's edge weight to it.  The paper also
   removes the edges between different slots (different slot = no
   conflict); those weights are never read again — only slot-to-unplaced
   weights choose a slot — so nothing is removed here;
4. blocks that never gained an edge are appended to the emptiest slots in
   trace order;
5. the output sequence round-robins over the slot lists, popping one head
   per non-empty slot per round — for the paper's Fig. 2 instance this
   yields exactly ``A B E F C``.

The fixed order of step 1 is the paper's "heaviest remaining edge": a
slot's merged weight to an unplaced block includes the current edge's
own weight, so re-weighing the edge after earlier merges can only raise
it above every edge not yet taken, and it would be taken next anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .trg import TRG

__all__ = ["ReductionResult", "reduce_trg"]


@dataclass
class ReductionResult:
    """Outcome of one TRG reduction."""

    #: final block sequence (round-robin over slots).
    order: list[int]
    #: slot contents, in placement order, before the round-robin emission.
    slots: list[list[int]]
    #: blocks appended in step 4 (no conflict information).
    unconstrained: list[int] = field(default_factory=list)


def reduce_trg(trg: TRG, n_slots: int) -> ReductionResult:
    """Run Algorithm 2 on ``trg`` with ``n_slots`` code slots."""
    if n_slots < 1:
        raise ValueError("need at least one slot")

    ids, pairs, weights = trg.nodes, trg.edges, trg.weights
    nodes, n, n_edges = ids.tolist(), ids.shape[0], weights.shape[0]
    # Node ids -> positions in ``nodes``, through one table over the id range.
    base = int(ids.min()) if n else 0
    table = np.full(int(ids.max()) - base + 1 if n else 0, -1, dtype=np.int32)
    table[ids - base] = np.arange(n, dtype=np.int32)
    offset = pairs - base
    if n_edges and (offset.min() < 0 or offset.max() >= table.shape[0]):
        raise ValueError("TRG edge endpoint missing from trg.nodes")
    ends = table[offset]  # (E, 2) positions, in the given edge order
    del offset, table
    if n_edges and ends.min() < 0:
        raise ValueError("TRG edge endpoint missing from trg.nodes")
    # Step 1's order: a block is placed by its first endpoint in the
    # sequence x0, y0, x1, y1, ... of the heaviest-first edges, so its key
    # is the least ``2 * rank + side`` over its endpoints.
    key = np.empty(n_edges, dtype=np.int32)
    key[np.lexsort((pairs[:, 1], pairs[:, 0], -weights))] = np.arange(
        0, 2 * n_edges, 2, dtype=np.int32
    )
    first = np.full(n, 2 * n_edges, dtype=np.int32)
    np.minimum.at(first, ends[:, 0], key)
    key += 1
    np.minimum.at(first, ends[:, 1], key)
    del key
    has_edge = first < 2 * n_edges
    placement = np.flatnonzero(has_edge)[np.argsort(first[has_edge])].tolist()
    unconstrained = [nodes[i] for i in np.flatnonzero(~has_edge).tolist()]
    del first, has_edge
    # CSR adjacency: block b's neighbours and weights sit at indptr[b]:indptr[b+1].
    # Each neighbour appears once per row, so the order within a row is free.
    ends = ends.ravel()  # edge of ends[i] and ends[i ^ 1] is i >> 1
    by_block = np.argsort(ends)
    neighbours = ends[by_block ^ 1]
    nbr_weights = weights[by_block >> 1]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    indptr = indptr.tolist()
    del ends, by_block

    slot_w = np.zeros((n_slots, n), dtype=np.int64)
    fill = np.zeros(n_slots, dtype=np.int64)
    slots: list[list[int]] = [[] for _ in range(n_slots)]
    no_edge = np.iinfo(np.int64).max
    for b in placement:
        target = int(np.argmin(fill))  # the first empty slot, if any
        if fill[target]:
            col = slot_w[:, b]
            if col.any():
                target = int(np.argmin(np.where(col > 0, col, no_edge)))
            # else: no slot has conflict information; keep the emptiest.
        lo, hi = indptr[b], indptr[b + 1]
        slot_w[target, neighbours[lo:hi]] += nbr_weights[lo:hi]
        fill[target] += 1
        slots[target].append(nodes[b])

    for block in unconstrained:
        target = int(np.argmin(fill))
        fill[target] += 1
        slots[target].append(block)

    # Round-robin emission (steps 25-29, repeated until all lists drain).
    order: list[int] = []
    cursors = [0] * n_slots
    remaining = sum(len(s) for s in slots)
    while remaining:
        for k in range(n_slots):
            if cursors[k] < len(slots[k]):
                order.append(slots[k][cursors[k]])
                cursors[k] += 1
                remaining -= 1
    return ReductionResult(order=order, slots=slots, unconstrained=unconstrained)
