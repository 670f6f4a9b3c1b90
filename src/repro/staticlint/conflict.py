"""Static conflict prediction: closed-form cache geometry over a layout.

:class:`StaticLintContext` is the lint context over *estimated* heat: the
trace-driven :class:`~repro.lint.context.LintContext` with the per-block
execution counts of a
:class:`~repro.staticlint.frequency.StaticProfile` in place of a trace's.
The hot set, line heat (expected dynamic fetches of each line) and hot
occupancy are the base class's; this module adds the facts only the
static pack uses:

* **set pressure** — lines map to sets in closed form
  (``set = line mod n_sets``, a bit-mask for the power-of-two geometries
  here), so the warm-line population of every set is a static quantity;
* **conflict scores** — within a set whose *warm* lines (estimated heat
  > 0) number ``k > A`` ways, LRU cannot keep more than the ``A``
  hottest resident; the heat of the remaining lines is unservable
  residency demand.  Each warm line in the set is charged its own heat
  times the set's unservable-demand fraction (overflow heat / total set
  heat) — the static analogue of an LRU set thrashing proportionally to
  how oversubscribed it is, and the quantity the certification mode
  rank-correlates against measured per-line *reuse* misses;
* **footprint bound** — sorting line heats descending bounds the
  footprint curve: the number of distinct lines needed to cover any
  fraction of all fetches, without a trace.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..cache.config import CacheConfig
from ..ir.module import Module
from ..lint.context import LintContext
from .frequency import StaticProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.codegen import AddressMap

__all__ = ["StaticLintContext"]


class StaticLintContext(LintContext):
    """The lint context over a static profile's estimated frequencies."""

    def __init__(
        self,
        module: Module,
        amap: "AddressMap",
        cache: CacheConfig,
        profile: StaticProfile,
        *,
        hot_coverage: float = 0.9,
    ) -> None:
        if profile.module is not module:
            raise ValueError("profile was computed for a different module")
        super().__init__(
            module, amap, cache, profile.block_freq, hot_coverage=hot_coverage
        )
        self.profile = profile

    @cached_property
    def image_lines(self) -> list[int]:
        """Every line index the image occupies, ascending."""
        first, n_lines = self._spans
        lines: set[int] = set()
        for gid in range(self.n_blocks):
            lo = int(first[gid])
            lines.update(range(lo, lo + int(n_lines[gid])))
        return sorted(lines)

    # -- set mapping and conflict scores ---------------------------------

    @cached_property
    def warm_lines_by_set(self) -> dict[int, list[int]]:
        """cache set -> lines with any estimated heat mapped to it.

        The conflict population: even a line outside the hot coverage
        prefix occupies a way when fetched and participates in LRU
        eviction, so set pressure counts every warm line.
        """
        by_set: dict[int, list[int]] = {}
        for line in self.image_lines:
            if self.line_heat.get(line, 0.0) > 0.0:
                by_set.setdefault(self.cache.set_of_line(line), []).append(line)
        return by_set

    @cached_property
    def conflict_scores(self) -> dict[int, float]:
        """line index -> predicted conflict-miss volume (0 for calm sets).

        Every line of the image gets a score.  For a set whose warm-line
        population exceeds the associativity ``A``, LRU can keep at most
        the ``A`` hottest lines resident; the heat of the rest is
        unservable residency demand.  Each warm line in the set is
        charged its own heat times the set's unservable-demand fraction
        (overflow heat / total set heat).  Lines in calm sets (and
        never-fetched lines) score 0.  Calibrated against measured
        per-line reuse misses by :mod:`repro.staticlint.certify`.
        """
        assoc = self.cache.assoc
        heat = self.line_heat
        scores: dict[int, float] = {line: 0.0 for line in self.image_lines}
        for _set_idx, lines in self.warm_lines_by_set.items():
            if len(lines) <= assoc:
                continue
            heats = sorted((heat[line] for line in lines), reverse=True)
            total = sum(heats)
            if total <= 0.0:
                continue
            overflow = sum(heats[assoc:]) / total
            for line in lines:
                scores[line] = heat[line] * overflow
        return scores

    # -- footprint bound --------------------------------------------------

    @cached_property
    def _heat_curve(self) -> np.ndarray:
        """Line heats sorted descending (the footprint curve's derivative)."""
        if not self.line_heat:
            return np.zeros(0)
        return np.sort(np.array(list(self.line_heat.values())))[::-1]

    def lines_for_coverage(self, fraction: float) -> int:
        """Static bound on the footprint: fewest lines covering
        ``fraction`` of all estimated fetches."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        curve = self._heat_curve
        total = float(curve.sum())
        if total <= 0.0:
            return 0
        cum = np.cumsum(curve)
        return int(np.searchsorted(cum, fraction * total, side="left")) + 1
