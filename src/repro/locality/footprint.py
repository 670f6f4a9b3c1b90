"""All-window average footprint (Xiang et al.; paper Sec. II-A).

The *footprint* ``fp(w)`` is the average number of distinct symbols observed
in a time window of length ``w``, averaged over **all** ``n - w + 1``
windows of the trace.  The paper's defensiveness/politeness equations are
stated in terms of footprints:

    ``P(self.miss) = P(self.FP + peer.FP >= C)``                 (Eq. 1)
    ``P(self.icache.miss) = P(self.FP.inst + peer.FP.inst >= C')``  (Eq. 2)

Computing all-window footprints naively is O(n²); the closed form used here
(derivable by counting, per symbol, the windows that *miss* it) is O(n):

    fp(w) = m - (1/(n-w+1)) * sum_over_gaps max(g - w + 1, 0)

where the gaps of a symbol with access times ``t_1 < ... < t_k`` are the
runs it is absent from: ``t_1 - 1`` (front), ``t_{j+1} - t_j - 1`` (between
accesses), and ``n - t_k`` (back).  Grouping gaps into a histogram turns the
whole curve into two suffix sums.

The brute-force sliding-window implementation is retained as the test
oracle for the property-based suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FootprintCurve", "footprint_curve", "footprint_brute"]


@dataclass
class FootprintCurve:
    """The all-window average footprint of one trace.

    ``fp[w]`` is the average footprint of windows of length ``w`` for
    ``w = 0 .. n`` (``fp[0] = 0``, ``fp[n] = m``).  The curve is
    monotonically non-decreasing (verified by the test suite) and concave
    *in practice* — exact concavity holds only under a condition on the
    reuse-time distribution (Xiang et al.), so the higher-order theory
    conversion in :mod:`repro.locality.hotl` relies on monotonicity alone.
    """

    fp: np.ndarray
    n: int
    m: int

    def __call__(self, w: int | np.ndarray) -> float | np.ndarray:
        """Footprint at window length ``w`` (clamped to ``[0, n]``).

        Any scalar input — Python ``int``, a NumPy integer scalar, or a
        0-d ndarray — yields a Python ``float``; array inputs yield an
        ndarray.  ``np.ndim(w) == 0`` is the discriminator: unlike
        ``np.isscalar`` (False for 0-d arrays, and version-dependent
        for NumPy scalar types) it treats every scalar kind alike.
        """
        w_clamped = np.clip(w, 0, self.n)
        result = self.fp[w_clamped]
        return float(result) if np.ndim(w) == 0 else result

    def fill_time(self, c: float) -> int:
        """Smallest window length whose footprint reaches ``c``.

        Returns ``n + 1`` when the program's total footprint never reaches
        ``c`` (the program fits in the cache with room to spare).

        Boundary: ``fp[n] == m`` exactly, but callers often hold ``c``
        as a float that drifted a hair above ``m`` (unit conversions,
        summed curves).  A capacity within relative/absolute 1e-9 of
        ``m`` is snapped to ``m``, so ``fill_time(m + 1e-9) ==
        fill_time(float(m))`` — without the snap the strict ``c > m``
        comparison would flip the answer from a valid window to
        ``n + 1``.  Capacities meaningfully above ``m`` (beyond the
        tolerance) still return ``n + 1``.

        Non-finite capacities raise ``ValueError``: NaN compares False
        against every bound, so it used to slide past the ``c > m``
        guard into ``np.searchsorted`` and silently answer ``n + 1`` —
        a poisoned input must fail loudly, not look like "fits in
        cache".  A capacity ``c <= 0`` returns 0 (a zero-length window
        already holds zero footprint); :func:`repro.locality.hotl.miss_ratio`
        rejects such capacities before ever asking for a fill time.
        """
        if not np.isfinite(c):
            raise ValueError(f"capacity must be finite, got {c!r}")
        if c > self.m:
            if not np.isclose(c, self.m, rtol=1e-9, atol=1e-9):
                return self.n + 1
            c = float(self.m)
        return int(np.searchsorted(self.fp, c, side="left"))

    def growth(self, w: int) -> float:
        """Discrete footprint growth rate fp(w+1) - fp(w) at ``w``."""
        if w >= self.n:
            return 0.0
        w = max(w, 0)
        return float(self.fp[w + 1] - self.fp[w])

    #: what :meth:`to_arrays` emits: name -> (dtype kind, shape), with
    #: ``None`` for an axis of any length.
    ARRAYS = {"fp": ("f", (None,)), "n": ("i", ()), "m": ("i", ())}

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Named arrays (memo entries): ``fp`` as raw ``float64`` plus
        ``n`` and ``m``, so a reloaded curve is bit-identical to the
        original — the composition parity gates rely on that."""
        return {
            "fp": self.fp,
            "n": np.array(self.n, dtype=np.int64),
            "m": np.array(self.m, dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, raw: dict) -> "FootprintCurve":
        """Rebuild a curve from :meth:`to_arrays`; malformed payloads raise
        ``ValueError`` so caches degrade to recomputation."""
        fp = np.asarray(raw["fp"], dtype=np.float64)
        n = int(raw["n"])
        m = int(raw["m"])
        if fp.ndim != 1 or fp.shape[0] != n + 1:
            raise ValueError(f"curve payload has {fp.shape} samples for n={n}")
        return cls(fp=fp, n=n, m=m)


def footprint_curve(trace: np.ndarray) -> FootprintCurve:
    """Compute the full all-window footprint curve in O(n)."""
    n = int(trace.shape[0])
    if n == 0:
        return FootprintCurve(fp=np.zeros(1), n=0, m=0)

    # Per-symbol access positions via a stable sort by symbol.
    order = np.argsort(trace, kind="stable")
    sorted_symbols = trace[order]
    positions = order.astype(np.int64) + 1  # 1-based times, ascending per symbol

    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_symbols[1:], sorted_symbols[:-1], out=boundary[1:])
    m = int(boundary.sum())

    # Gap lengths: front gaps (t_1 - 1), internal gaps (t_{j+1} - t_j - 1),
    # back gaps (n - t_k).  A gap of length g removes max(g - w + 1, 0)
    # windows; collect all gaps in one histogram.
    firsts = positions[boundary]
    last_mask = np.roll(boundary, -1)
    last_mask[-1] = True
    lasts = positions[last_mask]

    internal = positions[1:][~boundary[1:]] - positions[:-1][~boundary[1:]] - 1
    gaps = np.concatenate([firsts - 1, lasts * -1 + n, internal])
    gaps = gaps[gaps > 0]

    # S(w) = sum over gaps of max(g - w + 1, 0), for w = 1..n.
    # With histogram h[g]: S(w) = sum_{g >= w} h[g] * (g - w + 1)
    #                          = (sum_{g>=w} g*h[g]) - (w-1) * (sum_{g>=w} h[g]).
    fp = np.empty(n + 1, dtype=np.float64)
    fp[0] = 0.0
    if gaps.shape[0] == 0:
        fp[1:] = m
    else:
        h = np.bincount(gaps, minlength=n + 2).astype(np.float64)
        cnt_ge = np.cumsum(h[::-1])[::-1]  # cnt_ge[g] = number of gaps >= g
        sum_ge = np.cumsum((h * np.arange(h.shape[0]))[::-1])[::-1]
        w = np.arange(1, n + 1)
        s = sum_ge[w] - (w - 1) * cnt_ge[w]
        fp[1:] = m - s / (n - w + 1)

    return FootprintCurve(fp=fp, n=n, m=m)


def footprint_brute(trace: np.ndarray, w: int) -> float:
    """O(n) sliding-window oracle for the average footprint at one ``w``."""
    n = int(trace.shape[0])
    if not 1 <= w <= n:
        raise ValueError(f"w must be in [1, {n}]")
    counts: dict[int, int] = {}
    distinct = 0
    total = 0
    for i in range(n):
        x = int(trace[i])
        c = counts.get(x, 0)
        if c == 0:
            distinct += 1
        counts[x] = c + 1
        if i >= w:
            y = int(trace[i - w])
            counts[y] -= 1
            if counts[y] == 0:
                distinct -= 1
        if i >= w - 1:
            total += distinct
    return total / (n - w + 1)
