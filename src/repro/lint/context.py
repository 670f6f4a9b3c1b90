"""Shared derived facts for lint rules.

Every rule reasons over the same few projections of ``(Module, AddressMap,
CacheConfig)`` and a per-block heat array — the hot set, the
byte→line→set geometry, per-line heat and hot-byte occupancy.  A
:class:`LintContext` computes each projection once, lazily, and hands it to
all rules, so a full lint run costs one pass over the heat and one pass
over the blocks regardless of how many rules are enabled.

Heat model
----------
``block_heat[gid]`` is the number of executions of each block: measured
counts from a trace (``int64``, the L-pack) or estimated frequencies from
branch heuristics (``float64``, the static S-pack, which subclasses this
context).  A block is **hot** when it belongs to the smallest set of most
frequently executed blocks whose executions cover ``hot_coverage`` of the
total (the same popularity ordering the paper's pruning step uses,
:func:`repro.trace.prune.popularity`).  Everything else — including code
never executed — is **cold**.  Line *heat* counts dynamic fetches of the
line: one per execution of each block that spans it.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..cache.config import CacheConfig
from ..engine.fetch import line_spans
from ..ir.module import Module

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.codegen import AddressMap

__all__ = ["LintContext"]


class LintContext:
    """Lazily-derived facts one lint run shares across rules."""

    def __init__(
        self,
        module: Module,
        amap: "AddressMap",
        cache: CacheConfig,
        block_heat: np.ndarray,
        *,
        hot_coverage: float = 0.9,
    ) -> None:
        if not 0.0 < hot_coverage <= 1.0:
            raise ValueError("hot_coverage must be in (0, 1]")
        self.module = module
        self.amap = amap
        self.cache = cache
        self.block_heat = block_heat
        self.hot_coverage = hot_coverage

    # -- identity ---------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return self.module.n_blocks

    def block_name(self, gid: int) -> str:
        b = self.module.block_by_gid(gid)
        return f"{b.func}:{b.name}"

    # -- heat -------------------------------------------------------------

    @cached_property
    def hot_gids(self) -> list[int]:
        """Hot blocks, most frequently executed first.

        The smallest popularity prefix covering ``hot_coverage`` of all
        block executions (ties broken by gid for determinism).
        """
        heat = self.block_heat
        total = heat.sum()
        if total <= 0:
            return []
        order = np.lexsort((np.arange(self.n_blocks), -heat))
        cum = np.cumsum(heat[order])
        cut = int(np.searchsorted(cum, self.hot_coverage * total)) + 1
        return [int(g) for g in order[:cut] if heat[g] > 0]

    @cached_property
    def hot_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_blocks, dtype=bool)
        mask[self.hot_gids] = True
        return mask

    def is_hot(self, gid: int) -> bool:
        return bool(self.hot_mask[gid])

    # -- geometry ---------------------------------------------------------

    @cached_property
    def _spans(self) -> tuple[np.ndarray, np.ndarray]:
        return line_spans(self.amap, self.cache.line_bytes)

    @property
    def first_line(self) -> np.ndarray:
        """First cache-line index of each block (indexed by gid)."""
        return self._spans[0]

    @cached_property
    def broken_fallthroughs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(gids, targets)`` of the fall-through edges the layout breaks,
        by ascending gid.

        A block keeps its fall-through (``ExecTable.fallthrough``) only
        when its successor is next in layout order and starts where the
        block ends; a block missing from the order keeps none.
        """
        ft = self.module.exec_table.fallthrough
        gids = np.flatnonzero(ft >= 0)
        targets = ft[gids]
        position = np.full(self.n_blocks, -2, dtype=np.int64)
        order = np.asarray(self.amap.order, dtype=np.int64)
        # Out-of-range gids are L006's to report; they hold no block here.
        known = (order >= 0) & (order < self.n_blocks)
        position[order[known]] = np.flatnonzero(known)
        starts, sizes = self.amap.starts, self.amap.sizes
        adjacent = (position[targets] == position[gids] + 1) & (
            starts[targets] == starts[gids] + sizes[gids]
        )
        return gids[~adjacent], targets[~adjacent]

    # -- line-level projections ------------------------------------------

    @cached_property
    def line_heat(self) -> dict[int, int | float]:
        """line index -> dynamic fetches of that line.

        Values keep the heat array's element type: ``int`` for measured
        counts, ``float`` for estimated frequencies.
        """
        heat: dict[int, int | float] = {}
        block_heat = self.block_heat
        first, n_lines = self._spans
        for gid in np.flatnonzero(block_heat > 0):
            c = block_heat[gid].item()
            lo = int(first[gid])
            for line in range(lo, lo + int(n_lines[gid])):
                heat[line] = heat.get(line, 0) + c
        return heat

    @cached_property
    def hot_lines(self) -> list[int]:
        """Distinct cache lines touched by hot blocks — the static hot footprint."""
        lines: set[int] = set()
        first, n_lines = self._spans
        for gid in self.hot_gids:
            lo = int(first[gid])
            lines.update(range(lo, lo + int(n_lines[gid])))
        return sorted(lines)

    @cached_property
    def hot_line_blocks(self) -> dict[int, list[int]]:
        """line index -> hot gids spanning it (hottest first)."""
        by_line: dict[int, list[int]] = {}
        first, n_lines = self._spans
        for gid in self.hot_gids:  # hot_gids is already heat-ordered
            lo = int(first[gid])
            for line in range(lo, lo + int(n_lines[gid])):
                by_line.setdefault(line, []).append(gid)
        return by_line

    @cached_property
    def line_hot_bytes(self) -> dict[int, int]:
        """line index -> bytes of that line occupied by hot blocks."""
        lb = self.cache.line_bytes
        occ: dict[int, int] = {}
        for gid in self.hot_gids:
            start, end = self.amap.span(gid)
            for line in range(start // lb, (end - 1) // lb + 1):
                lo = max(start, line * lb)
                hi = min(end, (line + 1) * lb)
                occ[line] = occ.get(line, 0) + (hi - lo)
        return occ
