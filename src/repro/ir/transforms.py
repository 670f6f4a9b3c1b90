"""Layout transformations: function reordering and inter-procedural
basic-block reordering.

The IR is layout-independent, so a "transformation" here does what the
paper's LLVM passes do at the binary level: it fixes a new linear order of
code and materializes the consequences (entry stubs, explicit fall-through
jumps, new addresses).  The output is a :class:`LayoutResult` bundling the
:class:`~repro.ir.codegen.AddressMap` with provenance, ready for the fetch
model and the cache simulator.

Three steps of BB reordering (paper Sec. II-E):

1. *pre-processing* — entry stubs + explicit jumps (modeled in
   :func:`repro.ir.codegen.layout_blocks` via ``entry_stubs=True``);
2. *reordering* — the permutation itself, produced by a locality model;
3. *post-processing* — sanity checks (module re-validation, permutation
   completeness, address-map overlap check) and residual-jump elimination
   (a jump to the lexically next block is never emitted — also handled by
   the adjacency test in the size model).

The sanity checks are the layout-integrity audits from
:mod:`repro.lint.integrity` — the same functions behind the linter's L006
rule — so a broken order raises :class:`~repro.lint.integrity.LayoutError`
(a :class:`ValueError`) carrying the identical diagnostics ``python -m
repro.lint`` would report.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..lint.integrity import (
    audit_address_map,
    audit_function_order,
    audit_gid_order,
    raise_on_errors,
)
from .codegen import AddressMap, function_order_gids, layout_blocks, original_gid_order
from .module import Module
from .validate import validate_module

__all__ = [
    "LayoutKind",
    "LayoutResult",
    "baseline_layout",
    "reorder_functions",
    "reorder_basic_blocks",
]


class LayoutKind(str, Enum):
    """How a layout was produced."""

    ORIGINAL = "original"
    FUNCTION = "function-reorder"
    BASIC_BLOCK = "bb-reorder"


@dataclass
class LayoutResult:
    """A concrete, costed code layout."""

    kind: LayoutKind
    address_map: AddressMap
    #: the order fed to the transform: for function layouts the optimizer's
    #: function names as given, possibly partial (function-affinity with
    #: ``prune_k=3`` lists 3 of syn-mcf's 85; the rest follow in declaration
    #: order); for basic-block layouts the completed gid permutation.
    #: perfbench's layout digests hash it, so its meaning must not change.
    order: list
    #: free-form provenance, e.g. "affinity(w=2..20)"
    note: str = ""

    @property
    def added_jumps(self) -> int:
        return self.address_map.added_jumps

    @property
    def total_bytes(self) -> int:
        return self.address_map.total_bytes


def baseline_layout(module: Module) -> LayoutResult:
    """The original (declaration-order) layout.

    Fall-through jumps are costed with the same rules as optimized layouts
    so comparisons are apples-to-apples.
    """
    gids = original_gid_order(module)
    amap = layout_blocks(module, gids, entry_stubs=False)
    return LayoutResult(LayoutKind.ORIGINAL, amap, gids, note="declaration order")


def reorder_functions(module: Module, func_order: list[str], note: str = "") -> LayoutResult:
    """Apply whole-program function reordering.

    Blocks within each function keep their declaration order; no space is
    inserted between functions (paper Sec. II-D).  Functions absent from
    ``func_order`` are appended in declaration order.
    """
    validate_module(module)
    raise_on_errors(audit_function_order(module, func_order))
    gids = function_order_gids(module, func_order)
    amap = layout_blocks(module, gids, entry_stubs=False)
    raise_on_errors(audit_address_map(module, amap))
    return LayoutResult(LayoutKind.FUNCTION, amap, list(func_order), note=note)


def reorder_basic_blocks(module: Module, gid_order: list[int], note: str = "") -> LayoutResult:
    """Apply inter-procedural basic-block reordering.

    ``gid_order`` may be a partial order (e.g. only the hot blocks a pruned
    trace mentions); remaining blocks are appended in declaration order,
    mirroring how cold code is left in place by the paper's pass.
    """
    validate_module(module)
    raise_on_errors(audit_gid_order(module, gid_order))
    seen = set(gid_order)
    full = list(gid_order)
    for gid in original_gid_order(module):
        if gid not in seen:
            full.append(gid)

    amap = layout_blocks(module, full, entry_stubs=True)
    raise_on_errors(audit_address_map(module, amap))
    return LayoutResult(LayoutKind.BASIC_BLOCK, amap, full, note=note)
