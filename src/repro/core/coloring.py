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

    sizes_lines = [-(-func.size_bytes // line) for func in module.functions]
    extents = [
        func.size_bytes + _jump_budget(module, fi) for fi, func in enumerate(module.functions)
    ]
    starts_fn, addr = _color_hot(hot_order, conflicts, sizes_lines, extents, line, n_sets)

    for fi in cold:
        starts_fn[fi] = addr
        addr += extents[fi]

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


def _color_hot(
    hot_order: list[int],
    conflicts: np.ndarray,
    sizes_lines: list[int],
    extents: list[int],
    line: int,
    n_sets: int,
) -> tuple[dict[int, int], int]:
    """Step 3: the start address of each hot function, placed in
    ``hot_order`` from address 0, and the address after the last one.

    Function ``fi`` covers ``min(sizes_lines[fi], n_sets)`` sets from its
    color on and advances the address by ``extents[fi]`` bytes.  The cost
    of color c is the conflict-weighted number of sets it shares with the
    functions already placed.  That is a circular window sum, over the
    sets c .. c+span-1, of one occupancy vector: set s weighs the summed
    conflicts of the placed functions covering it.  Ties go to the first
    color from the current one on, the smallest gap.
    """
    occupied = np.zeros((len(sizes_lines), n_sets), dtype=np.int64)  # placed only
    starts: dict[int, int] = {}
    addr = 0
    for fi in hot_order:
        span = min(sizes_lines[fi], n_sets)
        row = conflicts[fi]
        partners = np.flatnonzero(row)
        load = row[partners] @ occupied[partners]
        sums = np.concatenate(([0], np.cumsum(np.concatenate((load, load)))))
        cost = sums[span : span + n_sets] - sums[:n_sets]
        current = (addr // line) % n_sets
        color = (current + int(np.argmin(np.roll(cost, -current)))) % n_sets
        # advance to the next address whose line has the chosen color.
        line_idx = -(-addr // line)  # ceil to a line boundary
        addr = (line_idx + (color - line_idx) % n_sets) * line
        starts[fi] = addr
        occupied[fi, (color + np.arange(span)) % n_sets] = 1
        addr += extents[fi]
    return starts, addr


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
