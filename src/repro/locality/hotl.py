"""Higher-order theory of locality: footprint -> miss ratio, and
composition in shared cache (Xiang et al., ASPLOS'13; paper Sec. II-A).

The key conversions:

* **fill time** — the window length ``w_c`` at which the average footprint
  reaches the cache capacity ``c``;
* **miss ratio** — the footprint growth rate at the fill time,
  ``mr(c) = fp(w_c + 1) - fp(w_c)``: each additional time step brings that
  many *new* lines into the window, and each new line is a miss;
* **shared-cache composition** — when programs co-run, their footprints
  add (the paper's Eq. 1/2): the shared fill time ``w*`` is the smallest
  window where ``sum_i fp_i(w) >= C``, and each program's co-run miss ratio
  is its own growth rate at ``w*``.

These model-level predictions complement the event-driven simulator in
:mod:`repro.cache`; experiments use the simulator for results and the model
for the formal defensiveness/politeness accounting.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .footprint import FootprintCurve

__all__ = [
    "miss_ratio",
    "shared_fill_time",
    "shared_fill_time_scalar",
    "shared_fill_times",
    "shared_growth",
    "shared_miss_ratios",
    "shared_miss_ratios_scalar",
]


def miss_ratio(curve: FootprintCurve, capacity: float) -> float:
    """Predicted miss ratio of a solo run in a cache of ``capacity`` lines."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    w = curve.fill_time(capacity)
    if w > curve.n:
        return 0.0  # whole program fits; only cold misses, amortized to ~0
    return curve.growth(w)


def _capacities(capacities) -> np.ndarray:
    """The shared-composition capacity guard: a non-empty float64
    vector, all finite and positive.

    NaN compares False against every bound, so without the explicit
    finiteness check it would slip through ``capacity > total_m`` into
    the search and silently answer "no contention".
    """
    caps = np.asarray(capacities, dtype=np.float64).reshape(-1)
    if caps.size == 0:
        raise ValueError("need at least one capacity")
    if not np.all(np.isfinite(caps)):
        bad = caps[~np.isfinite(caps)][0]
        raise ValueError(f"capacity must be finite, got {bad!r}")
    if np.any(caps <= 0):
        raise ValueError("capacity must be positive")
    return caps


def _groups(curves: Sequence[FootprintCurve], groups) -> np.ndarray:
    """``groups`` as a ``(G, k)`` index array into ``curves``, checked."""
    if not curves:
        raise ValueError("need at least one footprint curve")
    idx = np.asarray(groups, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] == 0:
        raise ValueError("groups must be a (G, k) index array with k >= 1")
    if idx.size and (idx.min() < 0 or idx.max() >= len(curves)):
        raise ValueError(f"group member outside [0, {len(curves)})")
    return idx


def _by_curve(idx: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """``(u, cells, rows)`` per distinct curve ``u`` of a ``(G, k)``
    index array: the flat member cells (``row * k + position``) that
    hold ``u``, and their rows.  Every member cell is in exactly one
    entry, so one gather per curve fills a ``(G * k, ...)`` array."""
    flat = idx.ravel()
    order = np.argsort(flat, kind="stable")
    ids, starts = np.unique(flat[order], return_index=True)
    k = idx.shape[1]
    return [
        (u, cells, cells // k)
        for u, cells in zip(ids.tolist(), np.split(order, starts[1:]))
    ]


def shared_fill_times(
    curves: Sequence[FootprintCurve], groups, capacities
) -> np.ndarray:
    """Shared fill times of G co-run groups at C capacities, shape ``(G, C)``.

    ``groups`` is a ``(G, k)`` array of indices into ``curves`` (one row
    per group; an index may repeat — replicas co-run as independent
    members).  Every (group, capacity) cell runs
    :func:`shared_fill_time_scalar`'s binary search, all cells in
    lockstep: each probe gathers every member's clamped ``fp`` value at
    ``w`` from the member curve's own array, then sums them in member
    order.  Those are the oracle's float additions in the oracle's
    order, so every answer is bit-identical to it — and no aligned sum
    of the curves (``max_n + 1`` floats per group) is ever built.

    Capacities within 1e-9 of a group's total footprint snap to it;
    capacities beyond that answer ``max_n + 1`` (no contention).
    """
    idx = _groups(curves, groups)
    caps = _capacities(capacities)
    n = np.array([c.n for c in curves], dtype=np.int64)
    m = np.array([c.m for c in curves], dtype=np.int64)
    max_n = n[idx].max(axis=1)[:, None]
    total_m = m[idx].sum(axis=1).astype(np.float64)[:, None]
    over = caps > total_m
    snap = over & np.isclose(caps, total_m, rtol=1e-9, atol=1e-9)
    target = np.where(snap, total_m, caps)
    lo = np.zeros(target.shape, dtype=np.int64)
    hi = np.where(over & ~snap, 0, max_n)
    plan = _by_curve(idx)
    values = np.empty((idx.size, caps.size), dtype=np.float64)
    members = values.reshape(idx.shape[0], idx.shape[1], caps.size)
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) // 2
        for u, cells, rows in plan:
            curve = curves[u]
            values[cells] = curve.fp[np.minimum(mid[rows], curve.n)]
        # The oracle's sum() starts at 0; 0.0 + fp is fp exactly (fp >= 0).
        probe = members[:, 0].copy()
        for j in range(1, idx.shape[1]):
            probe += members[:, j]
        reached = probe >= target
        hi = np.where(active & reached, mid, hi)
        lo = np.where(active & ~reached, mid + 1, lo)
    return np.where(over & ~snap, max_n + 1, lo)


def shared_growth(
    curves: Sequence[FootprintCurve], groups, fill_times: np.ndarray
) -> np.ndarray:
    """Each member's footprint growth at its group's fill times.

    ``fill_times`` is :func:`shared_fill_times`' ``(G, C)`` answer for
    the same ``groups``; the result has shape ``(G, k, C)``: member
    *j*'s ``fp[w+1] - fp[w]``, exactly 0 from its own trace end on — the
    co-run miss ratio of Eq. 1/2, equal to the scalar
    :meth:`FootprintCurve.growth` bit for bit.
    """
    idx = _groups(curves, groups)
    ws = np.asarray(fill_times, dtype=np.int64)
    out = np.zeros((idx.size, ws.shape[1]), dtype=np.float64)
    for u, cells, rows in _by_curve(idx):
        curve = curves[u]
        if curve.n == 0:
            continue  # empty trace: growth is 0 everywhere
        w = ws[rows]
        wc = np.minimum(w, curve.n - 1)
        g = curve.fp[wc + 1] - curve.fp[wc]
        g[w >= curve.n] = 0.0
        out[cells] = g
    return out.reshape(idx.shape[0], idx.shape[1], ws.shape[1])


def shared_fill_time(curves: Sequence[FootprintCurve], capacity: float) -> int:
    """Smallest window where the co-run programs' footprints sum to ``capacity``.

    All programs are assumed to progress at the same rate (symmetric SMT
    fetch), matching the paper's formulation.  Returns ``max_n + 1`` when
    the combined footprint never reaches capacity (no contention).

    The capacity boundary follows :meth:`FootprintCurve.fill_time`: a
    capacity within 1e-9 (relative or absolute) of the combined total
    footprint ``sum_i m_i`` is snapped to it, so float drift in the sum
    cannot flip the answer between a valid window and ``max_n + 1``.

    One group, one capacity of :func:`shared_fill_times`; bit-identical
    to :func:`shared_fill_time_scalar` (the parity suite pins it).
    """
    return int(shared_fill_times(curves, [range(len(curves))], [capacity])[0, 0])


def shared_fill_time_scalar(
    curves: Sequence[FootprintCurve], capacity: float
) -> int:
    """Scalar oracle for :func:`shared_fill_time`: per-probe binary search.

    Re-evaluates ``sum(float(c(mid)) for c in curves)`` at every probe.
    Kept in-tree as the parity reference for the batched query
    (:func:`shared_fill_times`, :mod:`repro.fleet.compose`) and the
    ``python -m repro.fleet bench`` gate; not for production use.
    """
    if not curves:
        raise ValueError("need at least one footprint curve")
    _capacities([capacity])
    max_n = max(c.n for c in curves)
    total_m = sum(c.m for c in curves)
    if capacity > total_m:
        if not np.isclose(capacity, total_m, rtol=1e-9, atol=1e-9):
            return max_n + 1
        capacity = float(total_m)
    lo, hi = 0, max_n
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(float(c(mid)) for c in curves) >= capacity:
            hi = mid
        else:
            lo = mid + 1
    return lo


def shared_miss_ratios(curves: Sequence[FootprintCurve], capacity: float) -> list[float]:
    """Per-program co-run miss ratios under shared-cache composition.

    Implements the paper's Eq. 1/2: program *i* misses when
    ``fp_i + sum_{j != i} fp_j >= C``; at the shared fill time each
    program's miss ratio is its own footprint growth rate.
    """
    w = shared_fill_time(curves, capacity)
    return [0.0 if w > c.n else c.growth(w) for c in curves]


def shared_miss_ratios_scalar(
    curves: Sequence[FootprintCurve], capacity: float
) -> list[float]:
    """Scalar oracle for :func:`shared_miss_ratios` (see
    :func:`shared_fill_time_scalar`)."""
    w = shared_fill_time_scalar(curves, capacity)
    return [0.0 if w > c.n else c.growth(w) for c in curves]
