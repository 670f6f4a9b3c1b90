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
    nodes, n = ids.tolist(), ids.shape[0]
    # Step 1's order as x0, y0, x1, y1, ..., then node ids -> positions in ``nodes``.
    heaviest_first = np.lexsort((pairs[:, 1], pairs[:, 0], -weights))
    ends = pairs[heaviest_first].ravel()
    if not np.isin(ends, ids).all():
        raise ValueError("TRG edge endpoint missing from trg.nodes")
    by_id = np.argsort(ids)
    ends = by_id[np.searchsorted(ids, ends, sorter=by_id)]
    weights = np.repeat(weights[heaviest_first], 2)  # edge of ends[i] and ends[i ^ 1]
    _, first = np.unique(ends, return_index=True)
    placement = ends[np.sort(first)].tolist()
    # CSR adjacency: block b's neighbours and weights sit at indptr[b]:indptr[b+1].
    by_block = np.argsort(ends, kind="stable")
    neighbours = ends[by_block ^ 1]
    nbr_weights = weights[by_block]
    indptr = np.searchsorted(ends[by_block], np.arange(n + 1)).tolist()

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

    placed = set(placement)
    unconstrained = [node for i, node in enumerate(nodes) if i not in placed]
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
