"""Address assignment: turning a layout order into a code image.

The locality models output an *order* of code blocks; the cache only sees
*addresses*.  This module maps orders to byte addresses, reproducing the
paper's size model:

* each IR instruction encodes to 4 bytes (:data:`~repro.ir.module.INSTRUCTION_BYTES`);
* **function reordering** keeps each function's blocks contiguous in their
  declaration order and inserts no space between functions;
* **inter-procedural BB reordering** first pre-processes the program: every
  function gets a one-instruction entry stub (a jump to its entry block,
  wherever it lands), and every block whose fall-through successor is not
  laid out immediately after it gets one explicit jump appended.  These
  added instructions enlarge the code image, so the politeness *cost* of
  aggressive reordering is visible to the cache simulator, exactly as in a
  real binary.

The result is an :class:`AddressMap`: per-gid start addresses and encoded
sizes, plus bookkeeping about how many jumps the layout had to add.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exectable import ExecTable
from .module import INSTRUCTION_BYTES, Module

__all__ = [
    "AddressMap",
    "layout_blocks",
    "place_blocks",
    "function_order_gids",
    "original_gid_order",
]


@dataclass
class AddressMap:
    """Byte placement of every block under one concrete layout.

    Attributes
    ----------
    order:
        gids in layout order (every block appears exactly once).
    starts, sizes:
        per-gid byte start address and encoded size (``int64`` arrays indexed
        by gid, *not* by layout position).
    added_jumps:
        number of explicit jump instructions the layout required (entry stubs
        plus broken fall-throughs).
    base:
        base address of the image.
    """

    order: list[int]
    starts: np.ndarray
    sizes: np.ndarray
    added_jumps: int
    base: int = 0

    @property
    def total_bytes(self) -> int:
        """Encoded code bytes (excluding any placement gaps)."""
        return int(self.sizes.sum())

    @property
    def end(self) -> int:
        """One past the last encoded byte (includes placement gaps)."""
        return int((self.starts + self.sizes).max()) if self.sizes.shape[0] else self.base

    @property
    def image_bytes(self) -> int:
        """Extent of the image including gaps (``end - base``)."""
        return self.end - self.base

    def span(self, gid: int) -> tuple[int, int]:
        """``(start, end)`` byte interval of block ``gid`` (end exclusive)."""
        start = int(self.starts[gid])
        return start, start + int(self.sizes[gid])

    def line_span(self, gid: int, line_bytes: int) -> tuple[int, int]:
        """``(first_line, last_line)`` cache-line indices touched by ``gid``."""
        start, end = self.span(gid)
        return start // line_bytes, (end - 1) // line_bytes

    def overlaps(self) -> bool:
        """True if any two blocks overlap (should never happen)."""
        idx = np.argsort(self.starts, kind="stable")
        starts = self.starts[idx]
        ends = starts + self.sizes[idx]
        return bool(np.any(starts[1:] < ends[:-1]))


def original_gid_order(module: Module) -> list[int]:
    """Declaration order of all blocks — the baseline ("original") layout."""
    return [b.gid for b in module.iter_blocks()]


def function_order_gids(module: Module, func_order: list[str]) -> list[int]:
    """Expand a function order into a gid order.

    Blocks inside each function keep their declaration order; functions not
    named in ``func_order`` are appended in declaration order (real linkers
    keep unmentioned sections in input order).
    """
    seen = set()
    order: list[int] = []
    for name in func_order:
        if name in seen:
            raise ValueError(f"function {name!r} appears twice in layout order")
        seen.add(name)
        order.extend(b.gid for b in module.function(name).blocks)
    for func in module.functions:
        if func.name not in seen:
            order.extend(b.gid for b in func.blocks)
    return order


def layout_blocks(
    module: Module,
    gid_order: list[int],
    *,
    entry_stubs: bool = False,
    base: int = 0,
) -> AddressMap:
    """Assign addresses to blocks laid out in ``gid_order``.

    Parameters
    ----------
    module:
        sealed module the order refers to.
    gid_order:
        permutation of all gids.
    entry_stubs:
        when True (inter-procedural BB reordering), each function's entry
        block is charged one extra jump instruction — the paper's
        pre-processing stub that redirects the function symbol to the
        relocated entry block.
    base:
        base byte address of the image.

    Fall-through accounting: for every block whose terminator falls through
    to a specific successor, if that successor is not placed immediately
    after the block, the block is charged one explicit jump instruction.
    This applies to *any* order, including the original one (a builder may
    declare blocks out of fall-through order), so baselines and optimized
    layouts are costed identically.
    """
    table = module.exec_table
    n = table.n_blocks
    order = np.asarray(gid_order, dtype=np.int64)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("gid_order must be a permutation of all block gids")

    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    sizes, added = _base_sizes(table, entry_stubs)
    ft = table.fallthrough
    has_ft = ft >= 0
    broken = has_ft & (position[np.where(has_ft, ft, 0)] != position + 1)
    sizes += INSTRUCTION_BYTES * broken
    added += int(broken.sum())

    ordered = sizes[order]
    starts = np.empty(n, dtype=np.int64)
    starts[order] = base + np.cumsum(ordered) - ordered

    return AddressMap(order=list(gid_order), starts=starts, sizes=sizes, added_jumps=added, base=base)


def _base_sizes(table: ExecTable, entry_stubs: bool) -> tuple[np.ndarray, int]:
    """Per-gid encoded sizes before fall-through jumps, plus the number
    of entry stubs charged (one per function when ``entry_stubs``)."""
    sizes = table.n_instr * INSTRUCTION_BYTES
    if not entry_stubs:
        return sizes, 0
    sizes[table.entry_gids] += INSTRUCTION_BYTES
    return sizes, len(table.entry_gids)


def place_blocks(
    module: Module,
    starts_by_gid: dict[int, int],
    *,
    entry_stubs: bool = False,
) -> AddressMap:
    """Assign blocks to *explicit* byte addresses (gap-capable placement).

    Unlike :func:`layout_blocks`, which packs an order densely, this takes
    a concrete start address per gid — the interface placement-style
    optimizers (Gloy-Smith alignment, cache-line coloring) need, where
    padding between code is part of the design.  Addresses must leave every
    block disjoint; gaps are allowed and simply waste space.

    Fall-through jumps are charged whenever a block's fall-through
    successor does not start exactly at its end.
    """
    table = module.exec_table
    n = table.n_blocks
    if sorted(starts_by_gid) != list(range(n)):
        raise ValueError("starts_by_gid must cover every gid exactly once")
    starts = np.zeros(n, dtype=np.int64)
    for gid, start in starts_by_gid.items():
        if start < 0:
            raise ValueError(f"negative start address for gid {gid}")
        starts[gid] = start

    # A block is charged a fall-through jump unless its successor starts
    # exactly at start + base size (+ stub): a placement that wants
    # adjacency with the jump must budget for it explicitly.
    sizes, added = _base_sizes(table, entry_stubs)
    ft = table.fallthrough
    has_ft = ft >= 0
    broken = has_ft & (starts[np.where(has_ft, ft, 0)] != starts + sizes)
    sizes += INSTRUCTION_BYTES * broken
    added += int(broken.sum())

    order = np.argsort(starts, kind="stable").tolist()
    amap = AddressMap(
        order=order, starts=starts, sizes=sizes, added_jumps=added, base=int(starts.min())
    )
    if amap.overlaps():
        raise ValueError("placement produces overlapping blocks")
    return amap
