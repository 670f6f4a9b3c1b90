"""Trimmed traces (paper Definition 1).

A *trimmed* basic-block (or function) trace is the original trace with runs
of consecutive identical symbols collapsed to one occurrence.  Both locality
models operate on trimmed traces: repeating the same block back-to-back adds
no locality information (the footprint between the repeats is 1).

All operations are vectorized; trimming a multi-million-entry trace costs a
few milliseconds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["trim"]


def trim(trace: np.ndarray) -> np.ndarray:
    """Collapse consecutive duplicate symbols.

    >>> trim(np.array([1, 1, 2, 2, 2, 1]))
    array([1, 2, 1])
    """
    if trace.ndim != 1:
        raise ValueError("trace must be one-dimensional")
    if trace.shape[0] == 0:
        return trace.copy()
    keep = np.empty(trace.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(trace[1:], trace[:-1], out=keep[1:])
    return trace[keep]
