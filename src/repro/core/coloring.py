"""Cache-line coloring function placement (Hashemi, Kaeli & Calder).

The paper's trace-pruning section credits Hashemi et al. [9], whose PLDI'97
work places *procedures* at chosen cache-line colors so that functions
that are live together do not collide in the cache — accepting **gaps**
between functions as the price.  The paper's own transformations refuse
gaps ("we do not insert spaces between functions"), which makes coloring
the perfect foil: it attacks conflicts directly but inflates the
instruction footprint, so it should lose ground exactly where the paper's
defensiveness story says footprint matters (shared cache).

Simplified algorithm (faithful to the idea, not the full unavailable-set
machinery):

1. estimate pairwise liveness with the TRG of the function trace (two
   functions conflict if reuses of one interleave the other);
2. place functions in decreasing execution-frequency order;
3. for each function, try every cache-set color for its start line and
   pick the color minimizing the conflict-weighted set overlap with
   already-placed functions; the function starts at the next address with
   that color, leaving a gap of up to one cache worth of lines;
4. never-executed functions are appended densely (no gaps for cold code).

Returns a :class:`~repro.ir.transforms.LayoutResult` whose address map may
contain gaps (:func:`repro.ir.codegen.place_blocks`).
"""

from __future__ import annotations

import numpy as np

from ..cache.config import CacheConfig
from ..engine.instrument import TraceBundle
from ..ir.codegen import place_blocks
from ..ir.module import INSTRUCTION_BYTES, Module
from ..ir.transforms import LayoutKind, LayoutResult
from ..trace.trim import trim

__all__ = ["color_functions"]


def color_functions(
    module: Module,
    bundle: TraceBundle,
    config=None,
    *,
    memo=None,
    stats=None,
    cache: CacheConfig | None = None,
) -> LayoutResult:
    """Cache-line coloring placement at function granularity.

    ``config`` may be an :class:`~repro.core.optimizers.OptimizerConfig`
    (its cache geometry and kernel tier are used); ``cache`` overrides
    the geometry.  ``memo`` and ``stats`` complete the layout catalog's
    signature (:data:`repro.core.optimizers.LAYOUTS`) and are unused.
    """
    from ..perf.backends import resolve_backend

    if cache is None:
        cache = getattr(config, "cache", None) or CacheConfig()
    line = cache.line_bytes
    n_sets = cache.n_sets

    # conflict weights between functions, from the trimmed function trace,
    # as a dense function-by-function matrix.
    backend = resolve_backend(getattr(config, "kernel_backend", None))
    trg = backend.trg(trim(bundle.func_trace), 2 * cache.n_lines)
    conflicts = np.zeros((len(module.functions),) * 2, dtype=np.int64)
    conflicts[trg.edges[:, 0], trg.edges[:, 1]] = trg.weights
    conflicts[trg.edges[:, 1], trg.edges[:, 0]] = trg.weights

    counts = np.bincount(bundle.func_trace, minlength=len(module.functions))
    hot_order = sorted(
        (i for i in range(len(module.functions)) if counts[i] > 0),
        key=lambda i: (-int(counts[i]), i),
    )
    cold = [i for i in range(len(module.functions)) if counts[i] == 0]

    #: per function index: (start_set, n_sets_spanned) once placed.
    placed: dict[int, tuple[int, int]] = {}
    sizes_lines = [
        -(-module.functions[i].size_bytes // line) for i in range(len(module.functions))
    ]

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
    starts_fn: dict[int, int] = {}
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
        starts_fn[fi] = addr
        placed[fi] = (best_color, span)
        addr += module.functions[fi].size_bytes + _jump_budget(module, fi)

    for fi in cold:
        starts_fn[fi] = addr
        addr += module.functions[fi].size_bytes + _jump_budget(module, fi)

    # expand to per-block starts: blocks dense inside each function, with
    # the fall-through jump budget accounted block by block.
    starts_by_gid: dict[int, int] = {}
    for fi, func in enumerate(module.functions):
        cursor = starts_fn[fi]
        for block in func.blocks:
            starts_by_gid[block.gid] = cursor
            cursor += block.n_instr * INSTRUCTION_BYTES
            ft = block.terminator.fallthrough_target()
            if ft is not None and _next_block(func, block) != ft:
                cursor += INSTRUCTION_BYTES

    amap = place_blocks(module, starts_by_gid)
    return LayoutResult(
        kind=LayoutKind.FUNCTION,
        address_map=amap,
        order=[module.functions[i].name for i in hot_order + cold],
        note=f"coloring({cache.describe()})",
    )


def _next_block(func, block) -> str | None:
    blocks = func.blocks
    for i, b in enumerate(blocks):
        if b is block:
            return blocks[i + 1].name if i + 1 < len(blocks) else None
    return None  # pragma: no cover


def _jump_budget(module: Module, fi: int) -> int:
    """Bytes of explicit jumps the function's internal layout needs."""
    func = module.functions[fi]
    budget = 0
    for block in func.blocks:
        ft = block.terminator.fallthrough_target()
        if ft is not None and _next_block(func, block) != ft:
            budget += INSTRUCTION_BYTES
    return budget
