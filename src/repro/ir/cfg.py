"""Control-flow graph queries over the IR.

* **intra-procedural** block successors (branch/jump/loop edges plus the
  return-to edge of a call);
* **inter-procedural** queries: the call graph and the static call sites
  of a function.

Per-gid successors (a CSR including call edges), fall-through targets and
whole-program reachability live on
:attr:`Module.exec_table <repro.ir.module.Module.exec_table>`.

These are static structures.  The paper's models are purely
profile-driven — dynamic frequencies come from traces — but the CFG is
also the substrate of the profile-*free* channel: :mod:`repro.staticlint`
estimates block frequencies from branch heuristics over these edges and
certifies the estimates against the trace-driven simulator.
"""

from __future__ import annotations

from .module import BasicBlock, Module

__all__ = [
    "intra_successors",
    "call_graph",
    "static_call_sites",
]


def intra_successors(module: Module, block: BasicBlock) -> list[BasicBlock]:
    """Intra-procedural successor blocks of ``block``.

    For a call terminator this is the return-to block (the edge that exists
    in the function's own layout); the callee entry is an inter-procedural
    edge reported by :func:`call_graph`.
    """
    func = module.function(block.func)
    return [func.block(name) for name in block.terminator.local_targets()]


def call_graph(module: Module) -> dict[str, set[str]]:
    """caller function name -> set of callee function names."""
    graph: dict[str, set[str]] = {f.name: set() for f in module.functions}
    for block in module.iter_blocks():
        callee = block.terminator.callee()
        if callee is not None:
            graph[block.func].add(callee)
    return graph


def static_call_sites(module: Module, func_name: str) -> list[BasicBlock]:
    """All blocks (anywhere in the module) that call ``func_name``."""
    return [
        block
        for block in module.iter_blocks()
        if block.terminator.callee() == func_name
    ]
