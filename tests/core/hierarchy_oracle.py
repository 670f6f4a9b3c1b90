"""Test oracle for :func:`repro.core.build_hierarchy`.

The direct reading of the paper's incremental Algorithm 1: at each w,
every unit is tested against every open group with one ``is_affine``
call per member pair.  Production builds the same forest from the pair
onset matrix; the property tests compare the two node for node.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core import AffinityAnalysis, AffinityNode


def build_hierarchy_reference(
    analysis: AffinityAnalysis, w_values: Optional[Sequence[int]] = None
) -> list[AffinityNode]:
    """Greedy unit merging with lower-level precedence, pair by pair."""
    if w_values is None:
        w_values = range(2, analysis.w_max + 1)
    w_list = list(w_values)
    if any(b <= a for a, b in zip(w_list, w_list[1:])):
        raise ValueError("w_values must be strictly ascending")
    if w_list and w_list[-1] > analysis.w_max:
        raise ValueError("w_values exceed the analysed w_max")

    units: list[AffinityNode] = [
        AffinityNode(w=0, symbol=s, first_occ=analysis.first_occurrence(s))
        for s in analysis.symbols
    ]

    for w in w_list:
        if len(units) <= 1:
            break
        groups: list[list[AffinityNode]] = []
        for unit in units:
            unit_members = unit.members()
            placed = False
            for group in groups:
                if all(
                    analysis.is_affine(a, b, w)
                    for node in group
                    for a in node.members()
                    for b in unit_members
                ):
                    group.append(unit)
                    placed = True
                    break
            if not placed:
                groups.append([unit])
        new_units: list[AffinityNode] = []
        for group in groups:
            if len(group) == 1:
                new_units.append(group[0])
            else:
                group.sort(key=lambda node: node.first_occ)
                new_units.append(
                    AffinityNode(
                        w=w, children=group, first_occ=group[0].first_occ
                    )
                )
        units = new_units

    units.sort(key=lambda node: node.first_occ)
    return units
