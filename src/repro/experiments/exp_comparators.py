"""Extension experiment X1: the paper's optimizers vs classic baselines.

The paper compares its two models against each other; a modern reader also
wants them located against prior art and trivial heuristics.  This driver
measures, on the study set (solo, clean simulator channel):

* the paper's ``function-affinity`` / ``bb-affinity`` / ``function-trg``,
* **Pettis-Hansen** chain merging at both granularities (the PLDI'90
  classic behind hfsort/BOLT),
* **popularity** (hot-first frequency sort) at BB granularity,
* **hot/cold splitting** (per-function cold-block exile).

Reading the result: popularity and hot/cold splitting bound how much of
the win is plain hot/cold segregation; Pettis-Hansen bounds what adjacent-
pair profiling achieves; the gap to bb-affinity is the value of windowed
co-occurrence modeling — the paper's actual contribution.
"""

from __future__ import annotations

from ..core.goals import relative_reduction
from ..workloads.suite import STUDY_PROGRAMS
from .pipeline import BASELINE, Lab
from .report import ExperimentResult, pct

__all__ = ["run", "COMPARISON_LAYOUTS"]

#: columns of the comparison, in report order.
COMPARISON_LAYOUTS = (
    "bb-affinity",
    "function-affinity",
    "function-trg",
    "bb-ph",
    "function-ph",
    "bb-popularity",
    "hotcold-split",
    "function-coloring",
)


def run(lab: Lab) -> ExperimentResult:
    rows = []
    summary: dict[str, float] = {}
    per_layout_sums: dict[str, list[float]] = {k: [] for k in COMPARISON_LAYOUTS}
    for name in STUDY_PROGRAMS:
        base = lab.solo_miss(name, BASELINE, channel="sim").ratio
        row = [name]
        for layout_name in COMPARISON_LAYOUTS:
            if not lab.supports(name, layout_name):
                row.append("N/A")
                continue
            mr = lab.solo_miss(name, layout_name, channel="sim").ratio
            red = relative_reduction(base, mr)
            row.append(pct(red, digits=1))
            summary[f"{name}/{layout_name}"] = red
            per_layout_sums[layout_name].append(red)
        rows.append(row)

    for layout_name, values in per_layout_sums.items():
        if values:
            summary[f"avg/{layout_name}"] = sum(values) / len(values)
    return ExperimentResult(
        exp_id="comparators",
        title="Extension: paper optimizers vs Pettis-Hansen, popularity, "
        "and hot/cold splitting (solo miss reduction, simulator)",
        headers=["program", *COMPARISON_LAYOUTS],
        rows=rows,
        summary=summary,
        notes=[
            "bb-* columns are N/A where the paper's BB pass failed "
            "(perlbench, povray)"
        ],
    )
