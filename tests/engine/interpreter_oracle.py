"""Reference interpreter: the per-run, object-walking form of
:func:`repro.engine.interpreter.run`.

It resolves its dispatch tables from ``module.block_by_gid`` on every run
and keeps one frame object per call, as the production interpreter did
before it read :attr:`Module.exec_table <repro.ir.module.Module.exec_table>`.
Kept so the property tests and the parity gate
(``python -m tests.engine.interpreter_parity``) can pin the production
interpreter to it: trace bytes and dtype, instruction count and
natural-exit flag.
"""

from __future__ import annotations

import bisect
import random
from itertools import accumulate

import numpy as np

from repro.engine.interpreter import RunResult
from repro.engine.state import InputSpec
from repro.ir.module import (
    Branch,
    Call,
    Exit,
    Jump,
    LoopBranch,
    Module,
    Return,
    Switch,
)

__all__ = ["run"]


def run(module: Module, spec: InputSpec) -> RunResult:
    """Execute ``module`` under ``spec`` by walking its block objects."""
    if not module.sealed:
        raise ValueError("module must be sealed")

    # Pre-resolve per-gid execution tables; the loop then never touches
    # string names or dataclass attribute chains.
    n = module.n_blocks
    blocks = [module.block_by_gid(g) for g in range(n)]
    n_instr = np.array([b.n_instr for b in blocks], dtype=np.int64)
    gid_of: dict[tuple[str, str], int] = {(b.func, b.name): b.gid for b in blocks}

    # Terminator dispatch tables: kind code + operands resolved to gids.
    K_JUMP, K_BRANCH, K_SWITCH, K_CALL, K_RET, K_EXIT, K_LOOP = range(7)
    kind = np.empty(n, dtype=np.int8)
    op_a = [0] * n  # primary target gid / callee entry gid
    op_b = [0] * n  # secondary target gid / return_to gid
    prob = [0.0] * n
    pprob = [None] * n  # phase probability
    pperiod = [0] * n
    trips = [0] * n
    sw_targets: list[tuple[int, ...]] = [()] * n
    sw_cum: list[list[float]] = [[]] * n

    for b in blocks:
        t = b.terminator
        g = b.gid
        if isinstance(t, Jump):
            kind[g] = K_JUMP
            op_a[g] = gid_of[(b.func, t.target)]
        elif isinstance(t, Branch):
            kind[g] = K_BRANCH
            op_a[g] = gid_of[(b.func, t.then)]
            op_b[g] = gid_of[(b.func, t.orelse)]
            prob[g] = t.taken_prob
            pprob[g] = t.phase_prob
            pperiod[g] = t.phase_period
        elif isinstance(t, Switch):
            kind[g] = K_SWITCH
            sw_targets[g] = tuple(gid_of[(b.func, name)] for name in t.targets)
            total = float(sum(t.weights))
            sw_cum[g] = list(accumulate(w / total for w in t.weights))
        elif isinstance(t, Call):
            kind[g] = K_CALL
            op_a[g] = module.function(t.func).entry.gid
            op_b[g] = gid_of[(b.func, t.return_to)]
        elif isinstance(t, Return):
            kind[g] = K_RET
        elif isinstance(t, Exit):
            kind[g] = K_EXIT
        elif isinstance(t, LoopBranch):
            kind[g] = K_LOOP
            op_a[g] = gid_of[(b.func, t.back)]
            op_b[g] = gid_of[(b.func, t.exit_to)]
            trips[g] = t.trips
        else:  # pragma: no cover - exhaustive over IR terminators
            raise TypeError(f"unknown terminator {t!r}")

    max_blocks = spec.max_blocks
    trace = np.empty(max_blocks, dtype=np.int32)
    rand = random.Random(spec.seed).random
    frames = [_Frame(module.entry, None)]
    phase_offset = spec.phase_offset

    executed = 0
    instr = 0
    natural = False
    current = module.function(module.entry).entry.gid
    loop_counters = frames[-1].loop_counters

    while executed < max_blocks:
        trace[executed] = current
        executed += 1
        instr += int(n_instr[current])

        k = kind[current]
        if k == K_JUMP:
            current = op_a[current]
        elif k == K_BRANCH:
            p = prob[current]
            pp = pprob[current]
            if pp is not None and ((executed + phase_offset) // pperiod[current]) & 1:
                p = pp
            current = op_a[current] if rand() < p else op_b[current]
        elif k == K_LOOP:
            c = loop_counters.get(current, 0) + 1
            if c < trips[current]:
                loop_counters[current] = c
                current = op_a[current]
            else:
                loop_counters[current] = 0
                current = op_b[current]
        elif k == K_CALL:
            frames.append(_Frame(blocks[current].func, op_b[current]))
            loop_counters = frames[-1].loop_counters
            current = op_a[current]
        elif k == K_RET:
            frame = frames.pop()
            if not frames:
                natural = True
                break
            loop_counters = frames[-1].loop_counters
            current = frame.return_gid  # type: ignore[assignment]
        elif k == K_SWITCH:
            i = bisect.bisect_left(sw_cum[current], rand())
            targets = sw_targets[current]
            current = targets[min(i, len(targets) - 1)]
        else:  # K_EXIT
            natural = True
            break

    return RunResult(
        bb_trace=trace[:executed].copy(),
        instr_count=instr,
        natural_exit=natural,
        spec=spec,
    )


class _Frame:
    """One call-stack frame: its function, resume gid and loop counters."""

    __slots__ = ("func", "return_gid", "loop_counters")

    def __init__(self, func: str, return_gid: int | None):
        self.func = func
        self.return_gid = return_gid
        self.loop_counters: dict[int, int] = {}
