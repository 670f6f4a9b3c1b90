"""Ablation studies for the design choices DESIGN.md calls out.

* **A1 — TRG window sensitivity** (paper Sec. III-C: "TRG is sensitive to
  the window size 2C; its improvement is fragile"): sweep the Gloy-Smith
  window factor and watch function-TRG's miss reduction swing.
* **A2 — affinity window range and coverage**: the paper chooses w in
  2..20 and strict coverage; compare against single windows, wider ranges,
  and relaxed coverage thresholds.
* **A3 — trace pruning** (paper Sec. II-F: top-10,000 blocks keep >90% of
  the trace): keep-ratio and downstream effect of the pruning budget.
* **A4 — the Petrank-Rawitz wall** (paper Sec. III-D): on a tiny program,
  exhaustively search all layouts; measure how close affinity and TRG get
  to the true optimum that is NP-hard (and inapproximable) in general.
* **A5 — seed robustness**: the paper calls affinity "robust" and TRG
  "fragile"; regenerate one program template under many structure seeds
  and report each optimizer's mean and spread.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from ..cache.config import CacheConfig
from ..core.goals import relative_reduction
from ..core.layout import Granularity
from ..core.optimizers import Model, OptimizerConfig, optimize
from ..engine.fetch import fetch_lines
from ..engine.instrument import collect_trace
from ..engine.state import InputSpec
from ..ir.builder import ModuleBuilder
from ..ir.transforms import reorder_basic_blocks
from ..trace.prune import prune_top_k
from ..trace.trim import trim
from .pipeline import BASELINE, Lab
from .report import ExperimentResult, pct, ratio

__all__ = [
    "run_trg_window",
    "run_affinity_windows",
    "run_pruning",
    "run_optimal_gap",
    "run_seed_robustness",
    "ABLATIONS",
]


def _sim_misses(lab: Lab, stream: np.ndarray, cache: CacheConfig) -> int:
    """Cold, prefetch-free LRU misses of ``stream`` on the lab's kernel tier."""
    return lab.backend.histogram(stream, cache.n_sets).misses(cache.assoc)


def _solo_reduction(lab: Lab, name: str, layout_result) -> float:
    """Solo miss reduction of an ad-hoc layout vs baseline (sim channel)."""
    prepared = lab.program(name)
    base = lab.solo_miss(name, BASELINE, channel="sim").ratio
    stream = fetch_lines(
        prepared.ref_bundle.bb_trace,
        layout_result.address_map,
        lab.cache_cfg.line_bytes,
    )
    mr = _sim_misses(lab, stream, lab.cache_cfg) / prepared.instr_count
    return relative_reduction(base, mr)


def run_trg_window(lab: Lab, program: str = "syn-gcc") -> ExperimentResult:
    """A1: function-TRG miss reduction across window factors.

    Sub-capacity windows (0.1C, 0.25C) blind the model to long-range
    conflicts; oversized windows blur phase-local patterns — the sweep
    exposes the fragility the paper attributes to the 2C constant.
    """
    rows = []
    summary: dict[str, float] = {}
    for factor in (0.1, 0.25, 0.5, 1.0, 2.0, 8.0):
        cfg = OptimizerConfig(cache=lab.cache_cfg, trg_window_factor=factor)
        layout = lab.optimize(program, Granularity.FUNCTION, Model.TRG, cfg)
        red = _solo_reduction(lab, program, layout)
        rows.append([f"{factor}C", pct(red)])
        summary[f"factor_{factor}"] = red
    values = list(summary.values())
    summary["spread"] = max(values) - min(values)
    return ExperimentResult(
        exp_id="ablation-trg-window",
        title=f"TRG window-factor sensitivity on {program} "
        "(paper: fragile around the recommended 2C)",
        headers=["window", "solo miss reduction (sim)"],
        rows=rows,
        summary=summary,
    )


def run_affinity_windows(lab: Lab, program: str = "syn-gcc") -> ExperimentResult:
    """A2: affinity w-range and coverage-threshold ablation.

    The expected outcome is *robustness* — the paper's reason for choosing
    w in 2..20 is that the hierarchy is insensitive to the exact range; the
    degenerate configs (w<=3, coverage 0.5) bound how much of the win comes
    from the hierarchy at all.
    """
    rows = []
    summary: dict[str, float] = {}
    configs = [
        ("w=2..20 cov=1.0 (paper)", dict(w_min=2, w_max=20, coverage=1.0)),
        ("w=2..3   cov=1.0", dict(w_min=2, w_max=3, coverage=1.0)),
        ("w=2..8   cov=1.0", dict(w_min=2, w_max=8, coverage=1.0)),
        ("w=8 only cov=1.0", dict(w_min=8, w_max=8, coverage=1.0)),
        ("w=2..40  cov=1.0", dict(w_min=2, w_max=40, coverage=1.0)),
        ("w=2..20 cov=0.9", dict(w_min=2, w_max=20, coverage=0.9)),
        ("w=2..20 cov=0.5", dict(w_min=2, w_max=20, coverage=0.5)),
    ]
    for label, kw in configs:
        cfg = OptimizerConfig(cache=lab.cache_cfg, **kw)
        layout = lab.optimize(program, Granularity.BASIC_BLOCK, Model.AFFINITY, cfg)
        red = _solo_reduction(lab, program, layout)
        rows.append([label, pct(red)])
        summary[label] = red
    return ExperimentResult(
        exp_id="ablation-affinity-window",
        title=f"Affinity window-range / coverage ablation on {program}",
        headers=["config", "solo miss reduction (sim)"],
        rows=rows,
        summary=summary,
    )


def run_pruning(lab: Lab, program: str = "syn-gcc") -> ExperimentResult:
    """A3: popularity-pruning budget: keep ratio and downstream effect."""
    prepared = lab.program(program)
    trimmed = trim(prepared.test_bundle.bb_trace)
    rows = []
    summary: dict[str, float] = {}
    for k in (25, 100, 400, 10_000):
        pruned = prune_top_k(trimmed, k)
        cfg = OptimizerConfig(cache=lab.cache_cfg, prune_k=k)
        layout = lab.optimize(program, Granularity.BASIC_BLOCK, Model.AFFINITY, cfg)
        red = _solo_reduction(lab, program, layout)
        rows.append(
            [str(k), pct(pruned.keep_ratio, signed=False), pct(red)]
        )
        summary[f"k{k}/keep_ratio"] = pruned.keep_ratio
        summary[f"k{k}/reduction"] = red
    return ExperimentResult(
        exp_id="ablation-pruning",
        title=f"Trace-pruning budget on {program} "
        "(paper: top-10k blocks keep >90% of the trace)",
        headers=["top-k", "keep ratio", "bb-affinity miss reduction (sim)"],
        rows=rows,
        summary=summary,
    )


def _tiny_module():
    """A 10-block two-leaf program for exhaustive layout search.

    Deliberately irregular block sizes make line packing matter, so the
    720 leaf-block permutations span a wide miss range in the doll-house
    cache (roughly 1.7x between best and worst).
    """
    sizes = iter((4, 9, 6, 11, 5, 13))
    b = ModuleBuilder("tiny")
    f = b.function("main")
    f.block("entry", 3).loop("callx", "done", trips=400)
    f.block("callx", 2).call("x", return_to="cally")
    f.block("cally", 2).call("y", return_to="entry")
    f.block("done", 1).exit()
    for fname in ("x", "y"):
        g = b.function(fname)
        g.block("e", next(sizes)).branch(
            "a", "b", taken_prob=0.9, phase_prob=0.1, phase_period=48
        )
        g.block("a", next(sizes)).ret()
        g.block("b", next(sizes)).ret()
    return b.build()


def run_optimal_gap(lab: Lab | None = None) -> ExperimentResult:
    """A4: exhaustive optimal layout vs affinity/TRG on a tiny program.

    Uses a doll-house cache (256 B direct-mapped, 16 B lines) so layout
    actually matters at this scale.  ``lab`` only contributes its kernel
    tier (default: a fresh lab's).
    """
    lab = lab if lab is not None else Lab()
    module = _tiny_module()
    cache = CacheConfig(size_bytes=128, assoc=1, line_bytes=16)
    spec = InputSpec("ref", seed=11, max_blocks=4_000)
    bundle = collect_trace(module, spec)
    # 720+ cold prefetch-free simulations: the kernel's home turf.
    def misses(layout) -> int:
        stream = fetch_lines(bundle.bb_trace, layout.address_map, cache.line_bytes)
        return _sim_misses(lab, stream, cache)

    # All candidates live in the same stub-charged address space, so the
    # comparison isolates pure ordering (baseline_layout would be 4 bytes
    # smaller per function and not comparable).
    main_gids = [blk.gid for blk in module.function("main").blocks]
    leaf_gids = [
        blk.gid for f in module.functions if f.name != "main" for blk in f.blocks
    ]
    base = misses(reorder_basic_blocks(module, main_gids + leaf_gids))

    cfg = OptimizerConfig(
        cache=cache, w_max=8, kernel_backend=lab.optimizer_config.kernel_backend
    )
    aff = misses(
        optimize(module, bundle, Granularity.BASIC_BLOCK, Model.AFFINITY, cfg)
    )
    trg = misses(optimize(module, bundle, Granularity.BASIC_BLOCK, Model.TRG, cfg))

    # Exhaustive search over leaf-block orders (main blocks pinned first).
    best = None
    worst = None
    for perm in permutations(leaf_gids):
        m = misses(reorder_basic_blocks(module, main_gids + list(perm)))
        best = m if best is None else min(best, m)
        worst = m if worst is None else max(worst, m)

    rows = [
        ["source order", str(base), ratio(base / best, 3)],
        ["bb-affinity", str(aff), ratio(aff / best, 3)],
        ["bb-trg", str(trg), ratio(trg / best, 3)],
        ["optimal (exhaustive)", str(best), "1.000"],
        ["worst (exhaustive)", str(worst), ratio(worst / best, 3)],
    ]
    return ExperimentResult(
        exp_id="ablation-optimal-gap",
        title="Petrank-Rawitz wall: heuristics vs the exhaustive optimum "
        "on a tiny program",
        headers=["layout", "misses", "x optimal"],
        rows=rows,
        summary={
            "baseline": float(base),
            "affinity": float(aff),
            "trg": float(trg),
            "optimal": float(best),
            "worst": float(worst),
            "affinity_gap": aff / best - 1.0,
            "trg_gap": trg / best - 1.0,
        },
        notes=[f"searched {720} leaf-block permutations"],
    )


def run_seed_robustness(lab: Lab | None = None, n_seeds: int = 8) -> ExperimentResult:
    """A5: optimizer robustness across program seeds.

    The paper characterizes affinity as "robust" and TRG as "fragile" from
    eight benchmarks; this ablation puts numbers on that claim by
    regenerating one program template under ``n_seeds`` different structure
    seeds and reporting the mean and spread of each optimizer's solo miss
    reduction.  Expectation: affinity's spread is narrow and its minimum
    stays positive; TRG's spread is wide and its minimum dips low or
    negative.
    """
    from ..core.optimizers import OPTIMIZERS
    from ..engine.instrument import collect_trace
    from ..ir.transforms import baseline_layout
    from ..workloads.generator import WorkloadSpec, build_program
    from ..workloads.suite import scaled_spec

    lab = lab if lab is not None else Lab()
    cache = lab.cache_cfg
    reductions: dict[str, list[float]] = {name: [] for name in OPTIMIZERS}
    for seed in range(100, 100 + n_seeds):
        template = WorkloadSpec(
            name=f"seedprog-{seed}",
            seed=seed,
            n_stages=22,
            leaves_per_stage=16,
            work_blocks=9,
            hot_block_instr=(4, 14),
            cold_block_instr=(10, 30),
            p_cold=0.15,
            scramble_functions=0.8,
            scramble_blocks=0.5,
            phase_stage_split=True,
            test_blocks=60_000,
            ref_blocks=150_000,
        )
        spec = scaled_spec(template, lab.scale)
        module = build_program(spec)
        test = collect_trace(module, spec.test_input())
        ref = collect_trace(module, spec.ref_input())
        base_lines = fetch_lines(
            ref.bb_trace, baseline_layout(module).address_map, cache.line_bytes
        )
        base_mr = _sim_misses(lab, base_lines, cache) / ref.instr_count
        cfg = OptimizerConfig(
            cache=cache, kernel_backend=lab.optimizer_config.kernel_backend
        )
        for name, optimizer in OPTIMIZERS.items():
            layout = optimizer(module, test, cfg)
            lines = fetch_lines(ref.bb_trace, layout.address_map, cache.line_bytes)
            mr = _sim_misses(lab, lines, cache) / ref.instr_count
            reductions[name].append(relative_reduction(base_mr, mr))

    rows = []
    summary: dict[str, float] = {}
    for name, values in reductions.items():
        arr = np.array(values)
        rows.append(
            [
                name,
                pct(float(arr.mean())),
                pct(float(arr.std())),
                pct(float(arr.min())),
                pct(float(arr.max())),
            ]
        )
        summary[f"{name}/mean"] = float(arr.mean())
        summary[f"{name}/std"] = float(arr.std())
        summary[f"{name}/min"] = float(arr.min())
        summary[f"{name}/max"] = float(arr.max())
    return ExperimentResult(
        exp_id="ablation-seeds",
        title=f"Optimizer robustness across {n_seeds} program seeds "
        "(solo miss reduction, sim channel)",
        headers=["optimizer", "mean", "std", "min", "max"],
        rows=rows,
        summary=summary,
    )


#: registry used by benchmarks.
ABLATIONS = {
    "trg-window": run_trg_window,
    "affinity-windows": run_affinity_windows,
    "pruning": run_pruning,
    "optimal-gap": run_optimal_gap,
    "seeds": run_seed_robustness,
}
