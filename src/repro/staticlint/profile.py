"""Synthesize a trace bundle from program structure alone.

:func:`synthesize_bundle` walks the CFG with the interpreter's own
dispatch (:func:`repro.engine.interpreter.walk` over the module's
:class:`~repro.ir.exectable.ExecTable`: per-frame loop counters with
exact :class:`~repro.ir.module.LoopBranch` trip emulation, a call/return
stack, termination on natural exit or block budget) but draws ``Branch``
and ``Switch`` outcomes from the *structural* heuristics of
:mod:`repro.staticlint.frequency` instead of the profile-bearing
terminator parameters.  The result is a real
:class:`~repro.engine.instrument.TraceBundle`, so every trace-consuming
component (``optimize``, ``run_lint``, ``fastsim``, footprint models)
works unchanged with no measured profile in the loop.
"""

from __future__ import annotations

import random
from itertools import accumulate

import numpy as np

from ..engine.instrument import TraceBundle
from ..engine.interpreter import walk
from ..ir.exectable import K_BRANCH
from ..ir.module import Module
from .dataflow import build_cfgs
from .frequency import FrequencyConfig, edge_probabilities

__all__ = ["synthesize_bundle", "STATIC_INPUT_NAME"]

#: ``TraceBundle.input_name`` of synthesized bundles; lets downstream
#: reports distinguish a heuristic profile from a measured one.
STATIC_INPUT_NAME = "static-synthetic"


def synthesize_bundle(
    module: Module,
    *,
    max_blocks: int,
    seed: int = 0,
    config: FrequencyConfig | None = None,
    input_name: str = STATIC_INPUT_NAME,
) -> TraceBundle:
    """Walk the CFG heuristically and package the result as a bundle.

    ``max_blocks`` is the dynamic block budget (the stand-in for input
    size, same meaning as :class:`~repro.engine.state.InputSpec`); the
    walk also stops early on a natural exit (``Exit`` or a return from
    the entry function's root frame).  Deterministic for a given
    ``(module, max_blocks, seed, config)``.
    """
    if not module.sealed:
        raise ValueError("module must be sealed")
    if max_blocks < 1:
        raise ValueError("max_blocks must be positive")
    config = config or FrequencyConfig()

    table = module.exec_table
    n = table.n_blocks
    # Heuristic probability of each branch's then side (1.0 if then ==
    # orelse), and uniform shares over each switch's case slots — the
    # terminators' own probabilities and weights are runtime profile data.
    # A block's CFG index is its offset from its function's entry gid.
    cfgs = build_cfgs(module)
    p_then = [0.0] * n
    for func, base in zip(module.functions, table.entry_gids.tolist()):
        probs = edge_probabilities(cfgs[func.name], config)
        for g in range(base, base + len(func.blocks)):
            if table.kind[g] == K_BRANCH:
                then, orelse = table.op_a[g], table.op_b[g]
                p_then[g] = 1.0 if then == orelse else probs[g - base].get(then - base, 0.0)
    sw_cum = {
        g: list(accumulate(1.0 / len(targets) for _ in targets))
        for g, targets in table.sw_targets.items()
    }

    bb_trace, instr, natural = walk(
        table, max_blocks, random.Random(seed).random, prob=p_then, sw_cum=sw_cum
    )
    function_names = [f.name for f in module.functions]
    func_of_gid = table.func_index.astype(np.int32)
    return TraceBundle(
        program=module.name,
        input_name=input_name,
        bb_trace=bb_trace,
        func_trace=func_of_gid[bb_trace],
        block_names=[f"{b.func}:{b.name}" for b in module.iter_blocks()],
        function_names=function_names,
        func_of_gid=func_of_gid,
        instr_count=instr,
        natural_exit=natural,
    )
