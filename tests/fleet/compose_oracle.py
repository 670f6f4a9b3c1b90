"""Aligned-sum composition oracle for the batched shared-fill-time query.

Before :func:`repro.locality.hotl.shared_fill_times` bisected over
member-order probe sums, the fleet answered composition queries by
materializing each group's summed curve and searching it.  The summed
curve stays here as a second reference: its ``fill_time`` must equal the
batched answer bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.locality.footprint import FootprintCurve


def compose_curves(curves: Sequence[FootprintCurve]) -> FootprintCurve:
    """Aligned sum of co-runners' footprint curves, as one curve.

    Past its own ``n`` a finished program holds its whole footprint, so
    the shorter curve clamps at ``m`` (what ``c(w)``'s clamp to
    ``[0, n]`` yields probe by probe).  The sum is accumulated curve by
    curve, in sequence order — the same float additions, in the same
    order, as ``sum(float(c(w)) for c in curves)`` at every ``w``.
    """
    if not curves:
        raise ValueError("need at least one footprint curve")
    max_n = max(c.n for c in curves)
    fp = np.zeros(max_n + 1, dtype=np.float64)
    for c in curves:
        fp[: c.n + 1] += c.fp
        if c.n < max_n:
            fp[c.n + 1 :] += float(c.m)
    return FootprintCurve(fp=fp, n=max_n, m=sum(c.m for c in curves))
