"""Extension experiment X6: co-scheduling meets code layout.

The paper treats the pairing of co-run programs as given and optimizes
layout; the co-scheduling literature it cites (Jiang et al.) treats the
binaries as given and optimizes the pairing.  This driver combines them:
pair the eight study programs onto four SMT cores, minimizing the sum of
per-pair makespans, under three regimes:

* baseline binaries, best pairing vs worst pairing (the scheduling
  headroom);
* function-affinity binaries, best pairing (do the two optimizations
  compose?);
* baseline binaries with the greedy pairing heuristic (how close the
  cheap heuristic gets).

Expected shape: layout optimization shrinks the scheduling headroom (the
polite binaries are less sensitive to who they share with) while the
combination still wins overall — layout and scheduling compose.
"""

from __future__ import annotations

from functools import partial

from ..machine.scheduler import all_pairings, best_pairing, greedy_pairing
from ..workloads.suite import STUDY_PROGRAMS
from .pipeline import BASELINE, Lab
from .report import ExperimentResult, pct, ratio

__all__ = ["pair_cost", "run"]


def pair_cost(lab: Lab, layout_name: str, a: str, b: str) -> float:
    """Co-run makespan of programs ``a`` and ``b``, both in ``layout_name``.

    The co-run simulation is not symmetric (thread order and address
    offset differ), while the pairing searches assume a symmetric cost,
    so the pair is always measured in sorted order.
    """
    a, b = sorted((a, b))
    return lab.corun_timing((a, layout_name), (b, layout_name)).makespan


def run(lab: Lab) -> ExperimentResult:
    programs = list(STUDY_PROGRAMS)
    base_cost = partial(pair_cost, lab, BASELINE)
    opt_cost = partial(pair_cost, lab, "function-affinity")

    base_best = best_pairing(programs, base_cost)
    base_greedy = greedy_pairing(programs, base_cost)
    base_worst = max(
        (sum(base_cost(a, b) for a, b in pairing) for pairing in all_pairings(programs))
    )
    opt_best = best_pairing(programs, opt_cost)

    headroom = base_worst / base_best.cost - 1.0
    compose = base_best.cost / opt_best.cost - 1.0
    greedy_gap = base_greedy.cost / base_best.cost - 1.0

    def render(p):
        return "; ".join(
            f"{a.replace('syn-', '')}+{b.replace('syn-', '')}" for a, b in p.pairs
        )

    rows = [
        ["baseline, best pairing", ratio(base_best.cost / 1e6, 2) + "M", render(base_best)],
        ["baseline, greedy pairing", ratio(base_greedy.cost / 1e6, 2) + "M", render(base_greedy)],
        ["baseline, worst pairing", ratio(base_worst / 1e6, 2) + "M", "--"],
        ["optimized, best pairing", ratio(opt_best.cost / 1e6, 2) + "M", render(opt_best)],
    ]
    summary = {
        "base_best_cost": base_best.cost,
        "base_greedy_cost": base_greedy.cost,
        "base_worst_cost": base_worst,
        "opt_best_cost": opt_best.cost,
        "scheduling_headroom": headroom,
        "layout_gain_at_best_pairing": compose,
        "greedy_gap": greedy_gap,
    }
    return ExperimentResult(
        exp_id="scheduling",
        title="Extension: co-scheduling x code layout — pairing 8 programs "
        "onto 4 SMT cores (sum of pair makespans, cycles)",
        headers=["regime", "total cost", "pairing"],
        rows=rows,
        summary=summary,
        notes=[
            f"scheduling headroom (worst/best - 1): {pct(headroom)}; "
            f"layout gain at the best pairing: {pct(compose)}; "
            f"greedy vs exact: {pct(greedy_gap)}"
        ],
    )
