"""Hot/cold code splitting, as an extension and analysis baseline.

Function splitting (Pettis & Hansen's second technique; GCC's
``-freorder-blocks-and-partition``) moves rarely executed basic blocks out
of line: each function keeps its hot blocks in place and exiles cold
blocks to a far-away section.  It needs only execution counts — no
co-occurrence modeling at all.

In this reproduction it serves as an *ablation baseline* for the paper's
models: the difference between ``hotcold-split`` and ``bb-affinity``
measures what windowed co-occurrence modeling buys **beyond** plain
hot/cold segregation, which is the first question a reviewer of the paper
would ask.

The transform emits a gid order: for every function (in declaration
order), its hot blocks in declaration order; then every cold block, also
grouped by function.  Applying it through
:func:`repro.ir.transforms.reorder_basic_blocks` charges the same entry
stubs and explicit jumps as any inter-procedural reordering, so the
comparison against the paper's optimizers is cost-faithful.
"""

from __future__ import annotations

import numpy as np

from ..engine.instrument import TraceBundle
from ..ir.module import Module
from ..ir.transforms import LayoutResult, reorder_basic_blocks

__all__ = ["hot_cold_order", "hot_cold_split"]


def hot_cold_order(
    module: Module, bundle: TraceBundle, hot_fraction: float = 0.001
) -> list[int]:
    """gid order with cold blocks exiled behind all hot blocks.

    A block is *hot* if it accounts for at least ``hot_fraction`` of the
    dynamic block executions (0 keeps every executed block hot; blocks
    that never execute are always cold).
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in [0, 1]")
    counts = np.bincount(bundle.bb_trace, minlength=module.n_blocks)
    total = int(counts.sum())
    threshold = max(1, int(np.ceil(hot_fraction * total)))

    hot: list[int] = []
    cold: list[int] = []
    for block in module.iter_blocks():
        if counts[block.gid] >= threshold:
            hot.append(block.gid)
        else:
            cold.append(block.gid)
    return hot + cold


def hot_cold_split(
    module: Module,
    bundle: TraceBundle,
    config=None,
    *,
    memo=None,
    stats=None,
    hot_fraction: float = 0.001,
) -> LayoutResult:
    """Apply hot/cold splitting as a basic-block layout.

    The signature is the layout catalog's
    (:data:`repro.core.optimizers.LAYOUTS`); ``config``, ``memo`` and
    ``stats`` are unused.
    """
    order = hot_cold_order(module, bundle, hot_fraction)
    return reorder_basic_blocks(
        module, order, note=f"hotcold-split(hot_fraction={hot_fraction})"
    )
