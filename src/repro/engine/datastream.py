"""Data-side access streams (for the unified-cache / Eq. 1 studies).

The paper's benefit classification covers both the instruction cache
(Eq. 2) and the *unified* lower-level cache, where instruction misses and
data misses compete (Eq. 1).  To exercise that path, blocks may carry a
:class:`~repro.ir.module.DataAccess` descriptor; this module expands a
dynamic block trace into the merged instruction+data stream a two-level
hierarchy consumes.  ``local`` accesses rotate over a small region (high
reuse), ``stream`` accesses advance linearly per execution (low reuse),
``shared`` accesses hit fixed global lines; blocks without a descriptor
contribute no data lines.

Address spaces: data lines live far above any code line
(:data:`DATA_SPACE_BASE`), each function gets its own region, and
``shared`` accesses target one global region — so code and data never
alias, and neither do two functions' locals.

All expansions are vectorized per static block (NumPy index arithmetic);
no Python-level loop touches the dynamic trace.
"""

from __future__ import annotations

import numpy as np

from ..ir.codegen import AddressMap
from ..ir.module import Module
from .fetch import line_spans

__all__ = [
    "DATA_SPACE_BASE",
    "SHARED_REGION_BASE",
    "merged_stream",
]

#: first line index of the data address space (code stays far below).
DATA_SPACE_BASE = 1 << 28
#: line region used by ``shared``-mode accesses.
SHARED_REGION_BASE = DATA_SPACE_BASE - (1 << 16)
#: line region reserved per function for its local/stream data.
FUNCTION_REGION_LINES = 1 << 14


def _per_gid_tables(module: Module) -> tuple[np.ndarray, list]:
    """(data line count per gid, per-gid descriptor tuples)."""
    n = module.n_blocks
    counts = np.zeros(n, dtype=np.int64)
    descs: list = [None] * n
    func_index = {f.name: i for i, f in enumerate(module.functions)}
    for block in module.iter_blocks():
        if block.data is None:
            continue
        counts[block.gid] = block.data.n_lines
        base = (
            SHARED_REGION_BASE
            if block.data.mode == "shared"
            else DATA_SPACE_BASE + func_index[block.func] * FUNCTION_REGION_LINES
        )
        descs[block.gid] = (block.data.mode, block.data.n_lines, block.data.region_lines, base)
    return counts, descs


def merged_stream(
    trace: np.ndarray, amap: AddressMap, line_bytes: int, module: Module
) -> tuple[np.ndarray, np.ndarray]:
    """(lines, is_data) — the interleaved instruction+data access stream.

    Each dynamic block contributes its fetch lines (in address order)
    followed by its data lines, preserving program order between blocks —
    the ordering a unified L2 observes.
    """
    first, n_ilines = line_spans(amap, line_bytes)
    d_counts, descs = _per_gid_tables(module)

    ci = n_ilines[trace]
    cd = d_counts[trace]
    per_exec = ci + cd
    total = int(per_exec.sum())
    lines = np.empty(total, dtype=np.int64)
    is_data = np.zeros(total, dtype=bool)
    if total == 0:
        return lines, is_data
    starts = np.cumsum(per_exec) - per_exec

    # instruction lines: consecutive from each block's first line.
    i_total = int(ci.sum())
    i_slots = np.repeat(starts, ci) + (
        np.arange(i_total, dtype=np.int64)
        - np.repeat(np.cumsum(ci) - ci, ci)
    )
    lines[i_slots] = np.repeat(first[trace], ci) + (
        np.arange(i_total, dtype=np.int64)
        - np.repeat(np.cumsum(ci) - ci, ci)
    )

    # data lines: per-gid vectorized fill, after the block's fetch lines.
    d_starts = starts + ci
    for gid, desc in enumerate(descs):
        if desc is None:
            continue
        mode, n_lines, region, base = desc
        idx = np.flatnonzero(trace == gid)
        if idx.shape[0] == 0:
            continue
        occ = np.arange(idx.shape[0], dtype=np.int64)
        slot0 = d_starts[idx]
        for j in range(n_lines):
            if mode == "local":
                off = (occ + j) % region
            elif mode == "stream":
                off = (occ * n_lines + j) % region
            else:
                off = np.full_like(occ, j % region)
            lines[slot0 + j] = base + off
            is_data[slot0 + j] = True
    return lines, is_data
