"""The paper's contribution: affinity and TRG models, layout optimizers,
and the defensiveness/politeness goal framework."""

from .affinity import AffinityAnalysis, affine_pairs_naive, window_footprint
from .fastanalysis import (
    AffinityCoverage,
    affinity_coverage,
    analysis_from_coverage,
    build_trg_fast,
    coverage_from_analysis,
)
from .goals import GoalScores, relative_reduction, score_goals
from .hierarchy import AffinityNode, build_hierarchy, hierarchy_levels, layout_order
from .layout import Granularity, apply_symbol_order
from .optimizers import (
    COMPARATORS,
    OPTIMIZERS,
    Model,
    OptimizerConfig,
    bb_affinity,
    bb_trg,
    function_affinity,
    function_trg,
    optimize,
)
from .pettis_hansen import pettis_hansen_order, transition_graph
from .splitting import hot_cold_order, hot_cold_split
from .trg import TRG, build_trg, trg_window_blocks, uniform_block_slots
from .trg_reduce import ReductionResult, reduce_trg

__all__ = [
    "COMPARATORS",
    "OPTIMIZERS",
    "TRG",
    "AffinityAnalysis",
    "AffinityCoverage",
    "AffinityNode",
    "GoalScores",
    "Granularity",
    "Model",
    "OptimizerConfig",
    "ReductionResult",
    "affine_pairs_naive",
    "affinity_coverage",
    "analysis_from_coverage",
    "apply_symbol_order",
    "bb_affinity",
    "bb_trg",
    "build_hierarchy",
    "build_trg",
    "build_trg_fast",
    "coverage_from_analysis",
    "function_affinity",
    "function_trg",
    "hierarchy_levels",
    "hot_cold_order",
    "hot_cold_split",
    "layout_order",
    "optimize",
    "pettis_hansen_order",
    "reduce_trg",
    "relative_reduction",
    "score_goals",
    "transition_graph",
    "trg_window_blocks",
    "uniform_block_slots",
    "window_footprint",
]
