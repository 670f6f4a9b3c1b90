"""Test oracle: the original link-based reference affinity (Zhong et al.).

The paper's w-window affinity (Sec. II-B) deliberately deviates from the
original definition: "W-window affinity differs from the original
definition, which uses the concept of a link.  In link-based affinity, the
window size is proportional to the size of an affinity group and not
constant.  As a result, the partition is unique in link-based affinity but
not in w-window affinity." — and the original is NP-hard to analyse in
general, which is why the paper adopts the windowed variant for
whole-program use.

This module implements the original definition directly, for small traces:

* two accesses are **k-linked** if the volume distance (number of distinct
  elements accessed between them, endpoints inclusive — the same quantity
  as the paper's window footprint) is at most ``k``;
* a set G is a **k-affinity group** if, for *every* occurrence of every
  member x and every other member y, there is some occurrence of y
  connected to that occurrence of x through a chain of member occurrences
  whose consecutive pairs are k-linked;
* the **strict affinity partition** at k is the set of maximal such groups
  (unique, unlike the w-window partition).

Complexity is exponential-ish in the alphabet (subset checking), so this is
a test oracle, never a production pass — exactly the situation the paper
describes for structure splitting with up to 14 fields.  The tests use it
to check that every w-window affine pair is link-affine.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.core.affinity import window_footprint
from repro.trace.trim import trim

__all__ = ["is_link_affinity_group", "link_affinity_partition"]


def _occurrences(trace: np.ndarray) -> dict[int, list[int]]:
    occ: dict[int, list[int]] = {}
    for i, x in enumerate(trace.tolist()):
        occ.setdefault(x, []).append(i)
    return occ


def _linked(trace: np.ndarray, i: int, j: int, k: int) -> bool:
    return window_footprint(trace, i, j) <= k


def is_link_affinity_group(trace: np.ndarray, group: set[int], k: int) -> bool:
    """Check the original definition for one candidate group.

    For every occurrence ``o`` of every member, a breadth-first search over
    k-linked member occurrences must reach *all* members of the group.
    """
    t = trim(np.asarray(trace))
    occ = _occurrences(t)
    if not group <= set(occ):
        return False
    if len(group) <= 1:
        return True
    member_positions = sorted(
        (pos, sym) for sym in group for pos in occ[sym]
    )
    positions = [p for p, _ in member_positions]
    symbols = [s for _, s in member_positions]

    for start_idx in range(len(positions)):
        reached = {symbols[start_idx]}
        frontier = [start_idx]
        seen = {start_idx}
        while frontier and reached != group:
            cur = frontier.pop()
            for nxt in range(len(positions)):
                if nxt in seen:
                    continue
                if _linked(t, positions[cur], positions[nxt], k):
                    seen.add(nxt)
                    reached.add(symbols[nxt])
                    frontier.append(nxt)
        if reached != group:
            return False
    return True


def link_affinity_partition(trace: np.ndarray, k: int) -> list[set[int]]:
    """The unique strict affinity partition at link length ``k``.

    Built bottom-up: start from singletons and repeatedly merge any two
    groups whose union still satisfies the definition.  Zhong et al. prove
    the strict groups form a partition (consistent, unique), so greedy
    merging order does not affect the result for valid inputs; the test
    suite checks order independence on random traces.
    """
    t = trim(np.asarray(trace))
    symbols = sorted(set(t.tolist()))
    groups: list[set[int]] = [{s} for s in symbols]
    changed = True
    while changed:
        changed = False
        for a, b in combinations(range(len(groups)), 2):
            union = groups[a] | groups[b]
            if is_link_affinity_group(t, union, k):
                merged = [g for i, g in enumerate(groups) if i not in (a, b)]
                merged.append(union)
                groups = merged
                changed = True
                break
    return sorted(groups, key=lambda g: min(g))
