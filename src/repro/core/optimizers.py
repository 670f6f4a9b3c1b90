"""The four code-layout optimizers (paper Sec. II-F).

Crossing two locality models with two granularities yields the paper's four
optimizers:

====================  =====================  ==========================
name                  model                  transformation
====================  =====================  ==========================
``function-affinity``  w-window affinity      function reordering
``bb-affinity``        w-window affinity      inter-procedural BB reorder
``function-trg``       TRG + reduction        function reordering
``bb-trg``             TRG + reduction        inter-procedural BB reorder
====================  =====================  ==========================

Each optimizer consumes an instrumented *test-input* trace
(:class:`~repro.engine.instrument.TraceBundle`) and the module, and emits a
:class:`~repro.ir.transforms.LayoutResult`.  The shared pipeline is: trim
the trace (Def. 1), prune to the most popular symbols (Sec. II-F), run the
model, expand the symbol order into a full layout.

:data:`LAYOUTS` is the layout catalog every tool resolves names through:
the declaration-order ``baseline``, the four optimizers and the
comparison baselines (:data:`COMPARATORS`), each built by one call,
:func:`build_layout`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..cache.config import PAPER_L1I, CacheConfig
from ..engine.instrument import TraceBundle
from ..ir.module import Module
from ..ir.transforms import LayoutResult, baseline_layout
from ..trace.prune import prune_top_k
from ..trace.trim import trim
from .coloring import color_functions
from .fastanalysis import analysis_from_coverage
from .hierarchy import build_hierarchy, layout_order
from .layout import Granularity, apply_symbol_order
from .splitting import hot_cold_split
from .trg import trg_window_blocks, uniform_block_slots
from .trg_reduce import reduce_trg

__all__ = [
    "BASELINE",
    "COMPARATORS",
    "LAYOUTS",
    "Model",
    "OPTIMIZERS",
    "OptimizerConfig",
    "bb_affinity",
    "bb_trg",
    "build_layout",
    "function_affinity",
    "function_trg",
    "optimize",
]

#: layout name of the unoptimized (declaration-order) layout.
BASELINE = "baseline"


class Model:
    """Locality model names.

    ``AFFINITY`` and ``TRG`` are the paper's two models; ``PH`` (Pettis-
    Hansen chain merging) and ``POPULARITY`` (hot-first frequency sort)
    are comparison baselines used by the extension experiments.
    """

    AFFINITY = "affinity"
    TRG = "trg"
    PH = "pettis-hansen"
    POPULARITY = "popularity"


@dataclass(frozen=True)
class OptimizerConfig:
    """Tunables shared by all four optimizers.

    Defaults follow the paper: affinity windows 2..20, strict coverage,
    top-10,000-block pruning, the 32KB/4-way/64B cache, and the
    Gloy-Smith window factor of 2.
    """

    #: affinity window range (paper: "we choose w between 2 and 20").
    w_min: int = 2
    w_max: int = 20
    #: fraction of occurrences that must be covered (1.0 = Definition 3).
    coverage: float = 1.0
    #: optional pending-occurrence time horizon for the affinity pass.
    affinity_time_horizon: Optional[int] = None
    #: popularity pruning: keep this many most-frequent symbols.
    prune_k: int = 10_000
    #: cache geometry used by the TRG slot computation.
    cache: CacheConfig = field(default=PAPER_L1I)
    #: TRG examines a window of ``trg_window_factor * cache size``.
    trg_window_factor: float = 2.0
    #: kernel backend tier the locality models run on (``numpy`` /
    #: ``scalar``; see :mod:`repro.perf.backends`).  None resolves to
    #: the default ``numpy`` tier.
    kernel_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if not 1 <= self.w_min <= self.w_max:
            raise ValueError(
                f"need 1 <= w_min <= w_max, got w_min={self.w_min}, w_max={self.w_max}"
            )
        if self.kernel_backend is not None:
            from ..perf.backends import TIERS

            if self.kernel_backend not in TIERS:
                raise ValueError(
                    f"unknown kernel backend {self.kernel_backend!r}; "
                    f"known: {', '.join(TIERS)}"
                )

    def w_values(self) -> range:
        return range(self.w_min, self.w_max + 1)


def _prepare_trace(
    bundle: TraceBundle, granularity: Granularity, config: OptimizerConfig
) -> np.ndarray:
    raw = (
        bundle.func_trace
        if granularity is Granularity.FUNCTION
        else bundle.bb_trace
    )
    trimmed = trim(raw)
    return prune_top_k(trimmed, config.prune_k).trace


def _uniform_size(
    module: Module, bundle: TraceBundle, granularity: Granularity
) -> int:
    """The uniform code-block size S for the TRG slot computation.

    The paper assumes one size for every function/basic block because its
    compiler sees IR, not binaries; we take the mean encoded size at the
    chosen granularity, which keeps S faithful to the program at hand.
    """
    if granularity is Granularity.FUNCTION:
        sizes = [f.size_bytes for f in module.functions]
    else:
        sizes = module.block_sizes()
    return max(1, int(round(float(np.mean(sizes)))))


def _backend(config: OptimizerConfig):
    """The configured kernel tier."""
    from ..perf import backends

    return backends.resolve_backend(config.kernel_backend)


def _analysis(kind: str, trace: np.ndarray, config: OptimizerConfig, memo, stats, **params):
    """One locality-model analysis (``kind``: ``"affinity"`` coverage or
    ``"trg"``) on the configured kernel tier, through the memo when one
    is given.

    ``stats`` (when given) folds in the ``analysis_*`` counters: ``cells``
    counts every analysis consumed; the passes/accesses/seconds
    throughput triple only advances when the analysis was actually
    (re)computed, and ``memo_hits`` when a memo replayed it.
    """
    backend = _backend(config)
    start = time.perf_counter()
    if memo is None:
        result = getattr(backend, kind)(trace, **params)
        fresh = True
    else:
        misses_before = memo.misses
        lookup = memo.affinity_coverage if kind == "affinity" else memo.trg
        result = lookup(trace, backend=backend, **params)
        fresh = memo.misses > misses_before
    seconds = time.perf_counter() - start
    if stats is not None:
        stats["analysis_cells"] = stats.get("analysis_cells", 0) + 1
        if fresh:
            stats["analysis_passes"] = stats.get("analysis_passes", 0) + 1
            stats["analysis_accesses"] = stats.get("analysis_accesses", 0) + len(trace)
            stats["analysis_seconds"] = stats.get("analysis_seconds", 0.0) + seconds
        else:
            stats["analysis_memo_hits"] = stats.get("analysis_memo_hits", 0) + 1
    return result


def optimize(
    module: Module,
    bundle: TraceBundle,
    granularity: Granularity,
    model: str,
    config: OptimizerConfig = OptimizerConfig(),
    *,
    memo=None,
    stats: Optional[dict] = None,
) -> LayoutResult:
    """Run one of the four optimizers and return the new layout.

    ``memo`` (a :class:`repro.perf.memo.SimMemo`) replays identical
    model analyses from the content-addressed cache; ``stats`` collects
    ``analysis_*`` throughput counters.  Neither ever changes the
    produced layout — every kernel tier is parity-gated bit-identical to
    the scalar models.
    """
    trace = _prepare_trace(bundle, granularity, config)
    if model == Model.AFFINITY:
        # No name for the coverage: it is freed before the hierarchy build.
        analysis = analysis_from_coverage(
            trace,
            _analysis(
                "affinity", trace, config, memo, stats,
                w_max=config.w_max, time_horizon=config.affinity_time_horizon,
            ),
            coverage=config.coverage,
        )
        forest = build_hierarchy(analysis, config.w_values())
        order = layout_order(forest)
        note = f"affinity(w={config.w_min}..{config.w_max}, cov={config.coverage})"
    elif model == Model.TRG:
        size = _uniform_size(module, bundle, granularity)
        window = trg_window_blocks(config.cache, size, config.trg_window_factor)
        slots = uniform_block_slots(config.cache, size)
        trg = _analysis("trg", trace, config, memo, stats, window_blocks=window)
        order = reduce_trg(trg, slots).order
        note = f"trg(window={window} blocks, slots={slots}, S={size}B)"
    elif model == Model.PH:
        from .pettis_hansen import pettis_hansen_order

        order = pettis_hansen_order(trace)
        note = "pettis-hansen(chain merge on transition graph)"
    elif model == Model.POPULARITY:
        from ..trace.prune import popularity

        symbols, _counts = popularity(trace)
        order = [int(s) for s in symbols]
        note = "popularity(hot-first frequency sort)"
    else:
        raise ValueError(f"unknown model {model!r}")
    return apply_symbol_order(module, bundle, order, granularity, note=note)


def _model_layout(granularity: Granularity, model: str) -> Callable[..., LayoutResult]:
    """A catalog builder running :func:`optimize` at one granularity and model."""

    def run(
        module: Module,
        bundle: TraceBundle,
        config: OptimizerConfig = OptimizerConfig(),
        *,
        memo=None,
        stats: Optional[dict] = None,
    ) -> LayoutResult:
        return optimize(
            module, bundle, granularity, model, config, memo=memo, stats=stats
        )

    return run


def _baseline(module: Module, bundle=None, config=None, *, memo=None, stats=None) -> LayoutResult:
    """Declaration order; reads no profile."""
    return baseline_layout(module)


#: The paper's four optimizers, keyed by the names used throughout the
#: evaluation.
OPTIMIZERS: dict[str, Callable[..., LayoutResult]] = {
    "function-affinity": _model_layout(Granularity.FUNCTION, Model.AFFINITY),
    "bb-affinity": _model_layout(Granularity.BASIC_BLOCK, Model.AFFINITY),
    "function-trg": _model_layout(Granularity.FUNCTION, Model.TRG),
    "bb-trg": _model_layout(Granularity.BASIC_BLOCK, Model.TRG),
}

function_affinity = OPTIMIZERS["function-affinity"]
bb_affinity = OPTIMIZERS["bb-affinity"]
function_trg = OPTIMIZERS["function-trg"]
bb_trg = OPTIMIZERS["bb-trg"]

#: Comparison baselines (not part of the paper's four optimizers): the
#: classic Pettis-Hansen ordering and a naive hot-first frequency sort at
#: both granularities, hot/cold splitting and cache-line coloring.  Used
#: by the extension experiments to locate the paper's models against
#: prior and trivial art.
COMPARATORS: dict[str, Callable[..., LayoutResult]] = {
    "function-ph": _model_layout(Granularity.FUNCTION, Model.PH),
    "bb-ph": _model_layout(Granularity.BASIC_BLOCK, Model.PH),
    "function-popularity": _model_layout(Granularity.FUNCTION, Model.POPULARITY),
    "bb-popularity": _model_layout(Granularity.BASIC_BLOCK, Model.POPULARITY),
    "hotcold-split": hot_cold_split,
    "function-coloring": color_functions,
}

#: The layout catalog: every layout name the tools accept (the baseline,
#: the paper's four, the comparators), in the order they list them, and
#: its builder ``(module, profile, config, *, memo=None, stats=None)``.
#: The baseline's builder reads no profile (``None`` is fine).
LAYOUTS: dict[str, Callable[..., LayoutResult]] = {
    BASELINE: _baseline,
    **OPTIMIZERS,
    **COMPARATORS,
}


def build_layout(
    name: str,
    module: Module,
    profile: Optional[TraceBundle],
    config: OptimizerConfig = OptimizerConfig(),
    *,
    memo=None,
    stats: Optional[dict] = None,
) -> LayoutResult:
    """Build the catalog layout ``name``; the one name-to-layout lookup.

    ``memo`` and ``stats`` reach the model-driven optimizers (see
    :func:`optimize`); the other builders ignore them.  An unknown name
    raises ``KeyError`` naming the known layouts.
    """
    builder = LAYOUTS.get(name)
    if builder is None:
        raise KeyError(f"unknown layout {name!r}; known: {', '.join(LAYOUTS)}")
    return builder(module, profile, config, memo=memo, stats=stats)
