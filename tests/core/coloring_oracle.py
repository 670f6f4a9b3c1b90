"""Test oracle for the color choice of :func:`repro.core.coloring.color_functions`.

The direct reading of step 3: try every color in turn from the current
one on, and price it by summing, over the placed neighbours, the conflict
weight times the number of cache sets both functions cover, counted set
by set.  Production prices all colors at once as a circular window sum of
one weighted occupancy vector; the property tests compare the two.
"""

from __future__ import annotations

import numpy as np


def color_hot_reference(
    hot_order: list[int],
    conflicts: np.ndarray,
    sizes_lines: list[int],
    extents: list[int],
    line: int,
    n_sets: int,
) -> tuple[dict[int, int], int]:
    """Same contract as :func:`repro.core.coloring._color_hot`."""
    #: per function index: (start_set, n_sets_spanned) once placed.
    placed: dict[int, tuple[int, int]] = {}

    def overlap(color: int, span: int, other: tuple[int, int]) -> int:
        """Number of cache sets both footprints cover (modular intervals)."""
        o_color, o_span = other
        hits = 0
        occupied = [False] * n_sets
        for k in range(min(o_span, n_sets)):
            occupied[(o_color + k) % n_sets] = True
        for k in range(min(span, n_sets)):
            if occupied[(color + k) % n_sets]:
                hits += 1
        return hits

    addr = 0
    starts: dict[int, int] = {}
    for fi in hot_order:
        span = sizes_lines[fi]
        row = conflicts[fi].tolist()
        neighbours = [(placed[gj], row[gj]) for gj in placed if row[gj] > 0]
        if neighbours:
            best_color, best_cost = 0, None
            current_color = (addr // line) % n_sets
            for delta in range(n_sets):
                color = (current_color + delta) % n_sets
                cost = sum(w * overlap(color, span, spot) for spot, w in neighbours)
                # prefer smaller gaps on ties (delta ascending).
                if best_cost is None or cost < best_cost:
                    best_color, best_cost = color, cost
        else:
            best_color = (addr // line) % n_sets
        # advance to the next address whose line has the chosen color.
        line_idx = -(-addr // line)  # ceil to a line boundary
        delta = (best_color - (line_idx % n_sets)) % n_sets
        addr = (line_idx + delta) * line
        starts[fi] = addr
        placed[fi] = (best_color, span)
        addr += extents[fi]
    return starts, addr
