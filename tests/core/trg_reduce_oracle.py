"""Test oracle for :func:`repro.core.reduce_trg`.

The direct reading of the paper's Algorithm 2: a union-find of slot
supernodes with per-supernode adjacency dicts, a lazy max-heap of edges
that revalidates (and re-pushes) stale entries against the merged
weights, and removal of the edges between slots after every placement.
Production makes one heaviest-first pass over the edges with a dense
slot-weight matrix; the property tests compare the two slot for slot.
"""

from __future__ import annotations

import heapq

from repro.core import TRG
from repro.core.trg_reduce import ReductionResult


class _SuperNodes:
    """Union-find over blocks with per-representative adjacency maps."""

    def __init__(self, nodes: list[int], trg: TRG):
        self.parent: dict[int, int] = {n: n for n in nodes}
        self.adj: dict[int, dict[int, int]] = {n: {} for n in nodes}
        for (x, y), w in zip(trg.edges.tolist(), trg.weights.tolist()):
            self.adj[x][y] = w
            self.adj[y][x] = w

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def weight(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        return self.adj[ra].get(rb, 0)

    def has_edge(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        return rb in self.adj[ra]

    def remove_edge(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        self.adj[ra].pop(rb, None)
        self.adj[rb].pop(ra, None)

    def merge(self, a: int, b: int) -> int:
        """Merge b's supernode into a's; edge weights to common peers add."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        self.parent[rb] = ra
        adj_a = self.adj[ra]
        for peer, w in self.adj.pop(rb).items():
            if peer == ra:
                continue
            peer_adj = self.adj[self.find(peer)]
            peer_adj.pop(rb, None)
            new_w = adj_a.get(peer, 0) + w
            adj_a[peer] = new_w
            peer_adj[ra] = new_w
        adj_a.pop(rb, None)
        return ra


def reduce_trg_reference(trg: TRG, n_slots: int) -> ReductionResult:
    """Algorithm 2 on ``trg`` with ``n_slots`` code slots, edge by edge."""
    if n_slots < 1:
        raise ValueError("need at least one slot")

    nodes = trg.nodes.tolist()
    sn = _SuperNodes(nodes, trg)
    slots: list[list[int]] = [[] for _ in range(n_slots)]
    #: representative supernode of each slot (None while empty).
    slot_rep: list[int | None] = [None] * n_slots
    placed: set[int] = set()

    # Lazy max-heap of candidate edges; entries are revalidated on pop
    # against the current supernode adjacency.
    heap: list[tuple[int, int, int]] = [
        (-w, x, y) for (x, y), w in zip(trg.edges.tolist(), trg.weights.tolist())
    ]
    heapq.heapify(heap)

    def place(block: int) -> None:
        """Steps 4-22 of Algorithm 2 for one unplaced endpoint."""
        target = None
        for k in range(n_slots):
            if slot_rep[k] is None:
                target = k
                break
        if target is None:
            best_w = None
            for k in range(n_slots):
                rep = slot_rep[k]
                assert rep is not None
                if not sn.has_edge(block, rep):
                    continue  # no temporal relation -> not a candidate
                w = sn.weight(block, rep)
                if best_w is None or w < best_w:
                    best_w = w
                    target = k
            if target is None:
                # No slot has conflict information; fall back to the
                # emptiest slot (stable under ties).
                target = min(range(n_slots), key=lambda k: len(slots[k]))

        slots[target].append(block)
        placed.add(block)
        rep = slot_rep[target]
        if rep is None:
            slot_rep[target] = sn.find(block)
        else:
            new_rep = sn.merge(rep, block)
            slot_rep[target] = new_rep
            for k in range(n_slots):
                if k != target and slot_rep[k] is not None:
                    if sn.find(slot_rep[k]) != new_rep:
                        slot_rep[k] = sn.find(slot_rep[k])
        # Remove edges between this block's slot node and the other slots.
        for k in range(n_slots):
            if k == target:
                continue
            other = slot_rep[k]
            if other is not None:
                sn.remove_edge(block, other)

    while heap:
        neg_w, x, y = heapq.heappop(heap)
        # Revalidate: the edge is actionable only if an endpoint is
        # unplaced and the weight is current.
        if x in placed and y in placed:
            continue
        current = sn.weight(x, y) if sn.find(x) != sn.find(y) else 0
        if current != -neg_w:
            if current > 0 and (x not in placed or y not in placed):
                heapq.heappush(heap, (-current, x, y))
            continue
        if x not in placed:
            place(x)
        if y not in placed:
            place(y)

    unconstrained = [n for n in nodes if n not in placed]
    for block in unconstrained:
        target = min(range(n_slots), key=lambda k: len(slots[k]))
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
