"""Execution table: the array form of a sealed module.

The interpreter, the verifier's reachability pass, block layout and the
static-profile walk all need the same per-block facts — what kind of
terminator ends each block, where it goes, with what probability, and how
many instructions it holds.  :class:`ExecTable` resolves them once per
sealed module (every name lookup turned into a gid) so those consumers
read flat per-gid lists instead of walking ``Function``/``BasicBlock``
objects.  :attr:`Module.exec_table <repro.ir.module.Module.exec_table>`
builds it on first use; :meth:`Module.seal` drops it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Optional

import numpy as np

from .module import Branch, Call, Exit, Jump, LoopBranch, Return, Switch

if TYPE_CHECKING:  # pragma: no cover
    from .module import Module

__all__ = [
    "ExecTable",
    "K_BRANCH",
    "K_CALL",
    "K_EXIT",
    "K_JUMP",
    "K_LOOP",
    "K_RET",
    "K_SWITCH",
]

#: terminator kind codes (``ExecTable.kind``).
K_JUMP, K_BRANCH, K_SWITCH, K_CALL, K_RET, K_EXIT, K_LOOP = range(7)


@dataclass(frozen=True, eq=False)
class ExecTable:
    """Per-gid control-flow and size facts of one sealed module.

    ``op_a``/``op_b`` hold a terminator's targets as gids: jump target /
    —, branch then / else, callee entry / return-to, loop back / exit.
    Lists serve the interpreter's per-block loop; the ``int64`` arrays
    (read-only) serve vectorized consumers.  Switch data is kept for the
    switch blocks only.
    """

    kind: list[int]
    op_a: list[int]
    op_b: list[int]
    #: branch taken probability, phase probability (``None``: no phase)
    #: and phase period.
    prob: list[float]
    phase_prob: list[Optional[float]]
    phase_period: list[int]
    #: loop trip counts.
    trips: list[int]
    #: switch blocks only: target gids and cumulative normalized weights.
    sw_targets: dict[int, tuple[int, ...]]
    sw_cum: dict[int, list[float]]
    #: instructions per block (the interpreter's count is one
    #: ``bincount`` of its trace against this).
    n_instr: np.ndarray
    #: owning function's index in ``Module.functions``.
    func_index: np.ndarray
    #: fall-through successor gid, ``-1`` where the terminator has none.
    fallthrough: np.ndarray
    #: entry gid of every function, in ``Module.functions`` order.
    entry_gids: np.ndarray
    #: the entry function's entry gid (where execution starts).
    start: int
    #: successor CSR: ``succ_idx[succ_ptr[g]:succ_ptr[g + 1]]`` are the
    #: intra-procedural targets of ``g``, then its callee's entry.
    succ_ptr: np.ndarray
    succ_idx: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.kind)

    @classmethod
    def build(cls, module: "Module") -> "ExecTable":
        """Resolve every terminator of sealed ``module`` to gids.

        Raises ``TypeError`` on a terminator of no known kind and
        ``KeyError`` on a target name that does not exist.
        """
        n = module.n_blocks
        kind = [0] * n
        op_a = [0] * n
        op_b = [0] * n
        prob = [0.0] * n
        phase_prob: list[Optional[float]] = [None] * n
        phase_period = [0] * n
        trips = [0] * n
        sw_targets: dict[int, tuple[int, ...]] = {}
        sw_cum: dict[int, list[float]] = {}
        n_instr = [0] * n
        func_index = [0] * n
        fallthrough = [-1] * n
        entry_of = {f.name: f.entry.gid for f in module.functions}
        succ_ptr = [0] * (n + 1)
        succs: list[int] = []
        for fi, func in enumerate(module.functions):
            local = {b.name: b.gid for b in func.blocks}
            for b in func.blocks:
                g, t = b.gid, b.terminator
                n_instr[g] = b.n_instr
                func_index[g] = fi
                if isinstance(t, Branch):
                    kind[g] = K_BRANCH
                    op_a[g] = local[t.then]
                    op_b[g] = fallthrough[g] = local[t.orelse]
                    prob[g] = t.taken_prob
                    phase_prob[g] = t.phase_prob
                    phase_period[g] = t.phase_period
                    succs += (op_a[g], op_b[g])
                elif isinstance(t, Call):
                    kind[g] = K_CALL
                    op_a[g] = entry_of[t.func]
                    op_b[g] = fallthrough[g] = local[t.return_to]
                    succs += (op_b[g], op_a[g])
                elif isinstance(t, Jump):
                    kind[g] = K_JUMP
                    op_a[g] = fallthrough[g] = local[t.target]
                    succs.append(op_a[g])
                elif isinstance(t, LoopBranch):
                    kind[g] = K_LOOP
                    op_a[g] = local[t.back]
                    op_b[g] = fallthrough[g] = local[t.exit_to]
                    trips[g] = t.trips
                    succs += (op_a[g], op_b[g])
                elif isinstance(t, Switch):
                    kind[g] = K_SWITCH
                    sw_targets[g] = tuple(local[name] for name in t.targets)
                    total = float(sum(t.weights))
                    sw_cum[g] = list(accumulate(w / total for w in t.weights))
                    succs += sw_targets[g]
                elif isinstance(t, Return):
                    kind[g] = K_RET
                elif isinstance(t, Exit):
                    kind[g] = K_EXIT
                else:
                    raise TypeError(f"unknown terminator {t!r}")
                succ_ptr[g + 1] = len(succs)
        return cls(
            kind=kind,
            op_a=op_a,
            op_b=op_b,
            prob=prob,
            phase_prob=phase_prob,
            phase_period=phase_period,
            trips=trips,
            sw_targets=sw_targets,
            sw_cum=sw_cum,
            n_instr=_frozen(n_instr),
            func_index=_frozen(func_index),
            fallthrough=_frozen(fallthrough),
            entry_gids=_frozen([f.entry.gid for f in module.functions]),
            start=module.function(module.entry).entry.gid,
            succ_ptr=_frozen(succ_ptr),
            succ_idx=_frozen(succs),
        )

    def reachable(self) -> np.ndarray:
        """Boolean mask of the gids reachable from :attr:`start` (a BFS
        over the successor CSR; a call reaches its callee's entry and its
        own return-to block)."""
        ptr = self.succ_ptr.tolist()
        idx = self.succ_idx.tolist()
        seen = [False] * self.n_blocks
        seen[self.start] = True
        queue = [self.start]
        for gid in queue:
            for nxt in idx[ptr[gid]:ptr[gid + 1]]:
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)
        return np.array(seen, dtype=bool)


def _frozen(values) -> np.ndarray:
    """A read-only ``int64`` array of ``values``."""
    array = np.array(values, dtype=np.int64)
    array.setflags(write=False)
    return array
