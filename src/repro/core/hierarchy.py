"""Affinity hierarchy construction and layout emission (paper Sec. II-B).

Sweeping the window size w from small to large yields a hierarchy of
affinity partitions (paper Def. 5 / Fig. 1): at the bottom every block is
its own group; as w grows, groups merge.  Lower-level (smaller-w) groups
take precedence — once formed, a group is treated as an atomic unit when
larger windows are considered, exactly the "incremental" reading of the
paper's Algorithm 1.

The result is a dendrogram (:class:`AffinityNode` forest).  The optimized
code sequence is its bottom-up traversal: children are kept in order of
their earliest first occurrence in the trace, and the leaves are emitted by
DFS — for the paper's Fig. 1 trace this reproduces the published sequence
``B1 B4 B2 B3 B5``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .affinity import AffinityAnalysis

__all__ = ["AffinityNode", "build_hierarchy", "layout_order", "hierarchy_levels"]


@dataclass
class AffinityNode:
    """A node of the affinity dendrogram.

    Leaves carry a single block (``symbol``); internal nodes carry the
    window size ``w`` at which their children merged.
    """

    #: window size that formed this node (0 for leaves).
    w: int
    children: list["AffinityNode"] = field(default_factory=list)
    symbol: Optional[int] = None
    #: earliest first-occurrence among member blocks (ordering key).
    first_occ: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.symbol is not None

    def members(self) -> list[int]:
        """All block symbols under this node, in emission order."""
        if self.is_leaf:
            return [self.symbol]  # type: ignore[list-item]
        out: list[int] = []
        for child in self.children:
            out.extend(child.members())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_leaf:
            return f"Leaf({self.symbol})"
        return f"Node(w={self.w}, members={self.members()})"


def build_hierarchy(
    analysis: AffinityAnalysis, w_values: Optional[Sequence[int]] = None
) -> list[AffinityNode]:
    """Build the affinity dendrogram forest for the analysed trace.

    ``w_values`` defaults to ``2 .. analysis.w_max`` (w=1 never groups
    anything in a trimmed trace: two blocks in a window of footprint 1 is
    impossible).  Values must be strictly ascending, ``>= 1`` and at most
    ``analysis.w_max``.

    Greedy unit merging with lower-level precedence: at each w, existing
    units (initially singleton leaves, ordered by first occurrence) are
    scanned in order; each unit joins the first newly-formed group whose
    every member block is pairwise w-affine with every block of the unit,
    or starts a new group.  Groups with a single unit are dissolved back to
    the unit (no spurious unary nodes).

    Every pairwise test is read off :meth:`AffinityAnalysis.onset_matrix`:
    two blocks are w-affine iff ``w >= onset``.  The unit onset matrix
    holds the max block onset over each pair of units, and an open
    group's row is the elementwise max over its units' rows, so "the unit
    fits the group" is one comparison, made for all open groups at once.
    Levels at which no two units are affine are skipped, and units with
    no affine partner stay singletons without being scanned.  The forest
    is node for node the one the pair-by-pair reading builds (the test
    oracle).
    """
    if w_values is None:
        w_values = range(2, analysis.w_max + 1)
    w_list = list(w_values)
    if any(b <= a for a, b in zip(w_list, w_list[1:])):
        raise ValueError("w_values must be strictly ascending")
    if w_list and w_list[-1] > analysis.w_max:
        raise ValueError("w_values exceed the analysed w_max")
    if w_list and w_list[0] < 1:
        raise ValueError("w_values must be >= 1")

    units: list[AffinityNode] = [
        AffinityNode(w=0, symbol=s, first_occ=analysis.first_occurrence(s))
        for s in analysis.symbols
    ]
    never = analysis.w_max + 1
    onsets = analysis.onset_matrix()
    np.fill_diagonal(onsets, never)
    nearest = onsets.min(axis=1, initial=never)

    for w in w_list:
        active = np.flatnonzero(nearest <= w)
        if active.size == 0:
            continue
        groups = [
            active[g].tolist()
            for g in _first_fit(onsets[np.ix_(active, active)], w)
            if len(g) > 1
        ]
        grouped = {g[0]: g for g in groups}
        followers = {u for g in groups for u in g[1:]}
        # Next-level units in group-creation order: each group sits at its
        # first unit's place, and every other unit carries over.
        leaders = [u for u in range(len(units)) if u not in followers]
        merged = [(i, grouped[u]) for i, u in enumerate(leaders) if u in grouped]
        new_units = [units[u] for u in leaders]
        for i, group in merged:
            children = sorted((units[u] for u in group), key=lambda n: n.first_occ)
            new_units[i] = AffinityNode(
                w=w, children=children, first_occ=children[0].first_occ
            )
        units = new_units

        # A merged unit's onset row and column are the max over its members'.
        rows = onsets[leaders]
        for i, group in merged:
            rows[i] = onsets[group].max(axis=0)
        onsets = rows[:, leaders]
        for i, group in merged:
            onsets[:, i] = rows[:, group].max(axis=1)
        np.fill_diagonal(onsets, never)
        nearest = onsets.min(axis=1, initial=never)

    units.sort(key=lambda node: node.first_occ)
    return units


def _first_fit(onsets: np.ndarray, w: int) -> list[list[int]]:
    """First-fit grouping of units (rows of ``onsets``) at window size w.

    Returns the groups in creation order, each listing its units in
    joining order.  ``rows[g]`` is the max onset from any unit of group g,
    so unit u fits group g iff ``rows[g, u] <= w``.
    """
    rows = np.empty_like(onsets)
    groups: list[list[int]] = []
    for u in range(len(onsets)):
        fits = np.flatnonzero(rows[: len(groups), u] <= w)
        if fits.size:
            g = int(fits[0])
            groups[g].append(u)
            np.maximum(rows[g], onsets[u], out=rows[g])
        else:
            rows[len(groups)] = onsets[u]
            groups.append([u])
    return groups


def layout_order(forest: Iterable[AffinityNode]) -> list[int]:
    """Optimized block sequence: bottom-up (DFS) traversal of the forest."""
    out: list[int] = []
    for node in forest:
        out.extend(node.members())
    return out


def hierarchy_levels(forest: Iterable[AffinityNode]) -> dict[int, list[list[int]]]:
    """Partition snapshots per w, for inspection and the Fig. 1 test.

    Returns ``{w: [group members ...]}`` for every w at which at least one
    merge happened, reconstructed from the dendrogram.
    """
    nodes: list[AffinityNode] = []

    def collect(n: AffinityNode) -> None:
        nodes.append(n)
        for child in n.children:
            collect(child)

    roots = list(forest)
    for r in roots:
        collect(r)
    ws = sorted({n.w for n in nodes if not n.is_leaf})
    levels: dict[int, list[list[int]]] = {}
    for w in ws:
        groups: list[list[int]] = []

        def cut(n: AffinityNode) -> None:
            if n.is_leaf or n.w > w:
                if n.is_leaf:
                    groups.append([n.symbol])  # type: ignore[list-item]
                else:
                    for child in n.children:
                        cut(child)
            else:
                groups.append(n.members())

        for r in roots:
            cut(r)
        levels[w] = groups
    return levels
