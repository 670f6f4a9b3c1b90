#!/usr/bin/env python3
"""The paper's two worked examples, executed: Fig. 1 (affinity hierarchy)
and Fig. 2 (TRG reduction).

Run:  python examples/affinity_hierarchy_demo.py
"""

import numpy as np

from repro.core import (
    TRG,
    AffinityAnalysis,
    build_hierarchy,
    hierarchy_levels,
    layout_order,
    reduce_trg,
)


def figure1() -> None:
    print("=== Paper Fig. 1: hierarchical w-window affinity ===")
    trace = np.array([1, 4, 2, 4, 2, 3, 5, 1, 4])  # B1 B4 B2 B4 B2 B3 B5 B1 B4
    names = {i: f"B{i}" for i in range(1, 6)}
    print("trace:", " ".join(names[x] for x in trace))

    analysis = AffinityAnalysis(trace, w_max=6)
    forest = build_hierarchy(analysis)
    for w, groups in sorted(hierarchy_levels(forest).items()):
        rendered = " ".join(
            "(" + ",".join(names[x] for x in g) + ")" for g in groups
        )
        print(f"  w={w}: {rendered}")
    order = layout_order(forest)
    print("output sequence:", " ".join(names[x] for x in order))
    assert order == [1, 4, 2, 3, 5], "must match the paper's published layout"


def figure2() -> None:
    print("\n=== Paper Fig. 2: TRG reduction with 3 code slots ===")
    A, B, C, E, F = 0, 1, 2, 3, 4
    names = {A: "A", B: "B", C: "C", E: "E", F: "F"}
    conflicts = {
        (A, B): 40, (E, F): 31, (C, E): 30,
        (B, E): 20, (B, F): 15, (A, F): 10,
    }
    for (x, y), w in conflicts.items():
        print(f"  edge {names[x]}-{names[y]}: weight {w}")
    trg = TRG.from_weights([A, B, C, E, F], conflicts)

    result = reduce_trg(trg, n_slots=3)
    for k, slot in enumerate(result.slots, 1):
        print(f"  code slot {k}: {' '.join(names[x] for x in slot)}")
    print("output sequence:", " ".join(names[x] for x in result.order))
    assert result.order == [A, B, E, F, C], "must match the paper's sequence"


if __name__ == "__main__":
    figure1()
    figure2()
