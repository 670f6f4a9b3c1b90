"""The fleet co-run scheduling simulator: N instances onto M sockets.

:func:`run_fleet` is the end-to-end driver behind ``python -m
repro.fleet`` and the ``exp_fleet`` experiment:

1. build the distinct (program, layout) *models* and their footprint
   curves — one curve pass per model, fanned across the lab's
   :class:`~repro.perf.parallel.CellPool` workers and memoized under
   :class:`~repro.perf.memo.SimMemo` curve digests;
2. sweep the **co-run pair matrix**: every unordered model pair
   (self-pairs included) queried across a capacity sweep in one batched
   composition query — hundreds of thousands of cells answered from
   those few curves (the reuse ratio the fleet-bench CI gate asserts);
3. replicate the models into N instances, place them onto M sockets
   under every requested policy, and score each placement with the
   composition model — layout-aware policies must beat the oblivious
   ones on total predicted misses.

Everything is deterministic: curves are content-addressed, the only
randomness is the seeded ``random`` policy, and placements tie-break
lexicographically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from ..experiments.pipeline import BASELINE, Lab
from ..workloads.suite import ALL_PROGRAMS
from .compose import CurveSet
from .placement import (
    AWARE_POLICIES,
    OBLIVIOUS_POLICIES,
    POLICIES,
    Instance,
    Placement,
    evaluate_placement,
)

__all__ = ["FleetResult", "run_fleet"]


@dataclass
class FleetResult:
    """One fleet run's models, matrix statistics, and scored placements."""

    n_instances: int
    n_sockets: int
    capacity: float
    models: tuple[tuple[str, str], ...]
    #: policy name -> scored placement.
    placements: dict[str, Placement] = field(default_factory=dict)
    #: pair-matrix sweep statistics.
    matrix_pairs: int = 0
    matrix_capacities: int = 0
    matrix_cells: int = 0
    mean_corun_ratio: float = 0.0
    worst_pair: tuple[str, str] = ("", "")
    worst_pair_ratio: float = 0.0
    curve_passes: int = 0
    curve_memo_hits: int = 0
    seconds: float = 0.0

    def _family_best(self, names: Sequence[str]) -> Optional[Placement]:
        scored = [self.placements[n] for n in names if n in self.placements]
        if not scored:
            return None
        return min(scored, key=lambda p: p.total_misses)

    @property
    def best_aware(self) -> Optional[Placement]:
        return self._family_best(AWARE_POLICIES)

    @property
    def best_oblivious(self) -> Optional[Placement]:
        return self._family_best(OBLIVIOUS_POLICIES)

    @property
    def aware_total(self) -> float:
        best = self.best_aware
        return best.total_misses if best is not None else float("nan")

    @property
    def oblivious_total(self) -> float:
        best = self.best_oblivious
        return best.total_misses if best is not None else float("nan")

    @property
    def gate(self) -> bool:
        """The fleet-bench claim: the best layout-aware placement's
        predicted misses strictly beat the best oblivious placement's."""
        return self.aware_total < self.oblivious_total

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_instances": self.n_instances,
            "n_sockets": self.n_sockets,
            "capacity": self.capacity,
            "models": [list(m) for m in self.models],
            "placements": {
                name: {
                    "total_misses": p.total_misses,
                    "makespan": p.makespan,
                    "groups": [list(g) for g in p.groups],
                }
                for name, p in sorted(self.placements.items())
            },
            "matrix": {
                "pairs": self.matrix_pairs,
                "capacities": self.matrix_capacities,
                "cells": self.matrix_cells,
                "mean_corun_ratio": self.mean_corun_ratio,
                "worst_pair": list(self.worst_pair),
                "worst_pair_ratio": self.worst_pair_ratio,
            },
            "curve_passes": self.curve_passes,
            "curve_memo_hits": self.curve_memo_hits,
            "aware_total": self.aware_total,
            "oblivious_total": self.oblivious_total,
            "gate": self.gate,
            "seconds": round(self.seconds, 4),
        }


def run_fleet(
    lab: Lab,
    *,
    n_instances: int,
    n_sockets: int,
    layouts: Sequence[str] = (BASELINE,),
    programs: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    seed: int = 0,
    capacity: Optional[float] = None,
    matrix_capacities: int = 128,
) -> FleetResult:
    """Simulate one fleet: curves -> pair matrix -> placements.

    ``capacity`` defaults to the lab's cache geometry in lines.  The
    instance list replicates the (program x layout) models round-robin
    up to ``n_instances``, each weighted by its trace length, so every
    instance of a model reuses the model's single curve.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    if n_sockets < 1:
        raise ValueError("n_sockets must be >= 1")
    if matrix_capacities < 1:
        raise ValueError("matrix_capacities must be >= 1")
    programs = list(programs) if programs is not None else list(ALL_PROGRAMS)
    policies = list(policies) if policies is not None else list(POLICIES)
    for name in policies:
        if name not in POLICIES:
            raise ValueError(f"unknown policy {name!r}")
    capacity = float(capacity) if capacity is not None else float(lab.cache_cfg.n_lines)

    start = time.perf_counter()
    models = [(p, layout) for p in programs for layout in layouts]
    passes_before = lab.counters["curve_passes"]
    hits_before = lab.counters["curve_memo_hits"]
    lab.precompute_footprints(models)
    curves = [lab.footprint(p, layout) for (p, layout) in models]
    curve_set = CurveSet(curves)

    # The co-run pair matrix: every unordered model pair (self-pairs
    # included) answered across the capacity sweep in one batched query.
    caps = capacity * np.linspace(0.25, 1.5, matrix_capacities)
    pairs = [(i, j) for i in range(len(models)) for j in range(i, len(models))]
    grids = curve_set.group(pairs).miss_ratio_matrix(caps)
    ratio_sum = 0.0
    worst_pair = ("", "")
    worst_ratio = -1.0
    for (i, j), grid in zip(pairs, grids):
        ratio_sum += float(grid.mean()) * grid.size
        pair_peak = float(grid.mean())
        if pair_peak > worst_ratio:
            worst_ratio = pair_peak
            worst_pair = (f"{models[i][0]}/{models[i][1]}",
                          f"{models[j][0]}/{models[j][1]}")
    matrix_cells = curve_set.cells

    instances = [
        Instance(
            name=models[k % len(models)][0],
            layout=models[k % len(models)][1],
            curve_id=k % len(models),
            weight=float(curves[k % len(models)].n),
        )
        for k in range(n_instances)
    ]
    result = FleetResult(
        n_instances=n_instances,
        n_sockets=n_sockets,
        capacity=capacity,
        models=tuple(models),
        matrix_pairs=len(pairs),
        matrix_capacities=matrix_capacities,
        mean_corun_ratio=ratio_sum / matrix_cells if matrix_cells else 0.0,
        worst_pair=worst_pair,
        worst_pair_ratio=max(worst_ratio, 0.0),
    )
    for name in policies:
        groups = POLICIES[name](
            instances, n_sockets, curve_set=curve_set, capacity=capacity, seed=seed
        )
        result.placements[name] = evaluate_placement(
            curve_set, instances, groups, capacity, lab.timing, policy=name
        )
    result.matrix_cells = matrix_cells
    result.curve_passes = int(lab.counters["curve_passes"] - passes_before)
    result.curve_memo_hits = int(lab.counters["curve_memo_hits"] - hits_before)
    result.seconds = time.perf_counter() - start
    lab.counters["fleet_cells"] += curve_set.cells
    lab.counters["fleet_seconds"] += result.seconds
    return result
