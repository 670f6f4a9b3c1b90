"""Reference block layout: the object-walking form of
:func:`repro.ir.codegen.layout_blocks`.

It walks ``Module.iter_blocks`` and keeps positions and fall-through
targets in dicts, as the production function did before it read
:attr:`Module.exec_table <repro.ir.module.Module.exec_table>`.  Kept so
the property tests can pin the array form to it.
"""

from __future__ import annotations

import numpy as np

from repro.ir.codegen import AddressMap
from repro.ir.module import INSTRUCTION_BYTES, Module

__all__ = ["layout_blocks"]


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
    n = module.n_blocks
    if sorted(gid_order) != list(range(n)):
        raise ValueError("gid_order must be a permutation of all block gids")

    position = {gid: i for i, gid in enumerate(gid_order)}

    # Fall-through targets per gid.
    ft_target: dict[int, int] = {}
    for block in module.iter_blocks():
        ft = block.terminator.fallthrough_target()
        if ft is not None:
            ft_target[block.gid] = module.function(block.func).block(ft).gid

    sizes = np.zeros(n, dtype=np.int64)
    added = 0
    entry_gids = {f.entry.gid for f in module.functions} if entry_stubs else set()
    for block in module.iter_blocks():
        size = block.n_instr * INSTRUCTION_BYTES
        gid = block.gid
        if gid in entry_gids:
            size += INSTRUCTION_BYTES
            added += 1
        target = ft_target.get(gid)
        if target is not None and position[target] != position[gid] + 1:
            size += INSTRUCTION_BYTES
            added += 1
        sizes[gid] = size

    starts = np.zeros(n, dtype=np.int64)
    addr = base
    for gid in gid_order:
        starts[gid] = addr
        addr += int(sizes[gid])

    return AddressMap(order=list(gid_order), starts=starts, sizes=sizes, added_jumps=added, base=base)
