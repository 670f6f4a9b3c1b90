"""Instruction-fetch modeling: block traces -> cache-line access streams.

The cache simulator consumes line addresses.  Executing one basic block
fetches its bytes sequentially, touching each cache line it spans exactly
once per execution.  Given a dynamic block trace and an
:class:`~repro.ir.codegen.AddressMap`, this module expands the trace into
the corresponding line-index stream.

The expansion is fully vectorized (``np.repeat`` + cumulative offsets); it
is the single hottest data-preparation step in the evaluation pipeline, so
no Python-level loop touches the trace.
"""

from __future__ import annotations

import numpy as np

from ..ir.codegen import AddressMap

__all__ = ["line_spans", "fetch_lines"]


def line_spans(amap: AddressMap, line_bytes: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-gid ``(first_line, n_lines)`` arrays for a given line size."""
    if line_bytes <= 0 or line_bytes & (line_bytes - 1):
        raise ValueError("line_bytes must be a positive power of two")
    starts = amap.starts
    ends = starts + amap.sizes  # exclusive
    first = starts // line_bytes
    last = (ends - 1) // line_bytes
    return first.astype(np.int64), (last - first + 1).astype(np.int64)


def fetch_lines(
    trace: np.ndarray, amap: AddressMap, line_bytes: int
) -> np.ndarray:
    """Expand a dynamic block trace into its cache-line access stream.

    Each occurrence of block ``g`` contributes the consecutive line indices
    ``first[g] .. first[g] + n_lines[g] - 1``.

    Returns an ``int64`` array of line indices (not byte addresses); the
    cache simulator maps them to sets directly.
    """
    if trace.ndim != 1:
        raise ValueError("trace must be one-dimensional")
    first, n_lines = line_spans(amap, line_bytes)
    counts = n_lines[trace]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Offsets 0..counts[i]-1 within each block execution:
    # repeat each execution's first line, then add a ramp that resets at
    # each execution boundary.
    starts_rep = np.repeat(first[trace], counts)
    boundaries = np.cumsum(counts) - counts  # start index of each execution
    ramp = np.arange(total, dtype=np.int64) - np.repeat(boundaries, counts)
    return starts_rep + ramp
