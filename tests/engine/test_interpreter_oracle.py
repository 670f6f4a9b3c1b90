"""The table-driven interpreter against its object-walking oracle.

:func:`repro.engine.interpreter.run` reads the module's execution table;
``interpreter_oracle.run`` resolves its own dispatch tables per run and
keeps frame objects.  Both must agree bit for bit: trace bytes and dtype,
instruction count and natural-exit flag.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import InputSpec, run
from repro.ir import ModuleBuilder
from repro.workloads import WorkloadSpec, build_program

from tests.engine import interpreter_oracle
from tests.engine.interpreter_parity import compare


def assert_same_run(module, spec):
    ours = run(module, spec)
    theirs = interpreter_oracle.run(module, spec)
    assert ours.bb_trace.dtype == theirs.bb_trace.dtype == np.int32
    assert ours.bb_trace.tobytes() == theirs.bb_trace.tobytes()
    assert ours.instr_count == theirs.instr_count
    assert isinstance(ours.instr_count, int)
    assert ours.natural_exit == theirs.natural_exit


@st.composite
def modules(draw):
    """Small modules over every terminator kind: switches (repeated
    targets included), phase branches, counted loops, calls into any
    function (recursion included), returns and exits."""
    n_funcs = draw(st.integers(1, 4))
    fnames = ["main", *(f"f{i}" for i in range(1, n_funcs))]
    b = ModuleBuilder("prop")
    for fname in fnames:
        n_blocks = draw(st.integers(1, 6))
        names = [f"b{i}" for i in range(n_blocks)]
        fb = b.function(fname)
        for name in names:
            block = fb.block(name, draw(st.integers(1, 9)))
            target = st.sampled_from(names)
            op = draw(st.sampled_from(["jump", "branch", "phase", "switch", "loop", "call", "ret", "exit"]))
            if op == "jump":
                block.jump(draw(target))
            elif op in ("branch", "phase"):
                p = draw(st.floats(0.0, 1.0))
                phase = dict(phase_prob=draw(st.floats(0.0, 1.0)), phase_period=draw(st.integers(1, 50)))
                block.branch(draw(target), draw(target), p, **(phase if op == "phase" else {}))
            elif op == "switch":
                k = draw(st.integers(1, 4))
                block.switch(
                    [draw(target) for _ in range(k)],
                    [draw(st.floats(0.01, 5.0)) for _ in range(k)],
                )
            elif op == "loop":
                block.loop(draw(target), draw(target), trips=draw(st.integers(1, 6)))
            elif op == "call":
                block.call(draw(st.sampled_from(fnames)), return_to=draw(target))
            elif op == "ret":
                block.ret()
            else:
                block.exit()
    return b.build()


@settings(max_examples=150, deadline=None)
@given(
    module=modules(),
    seed=st.integers(0, 2**31),
    max_blocks=st.integers(0, 3000),
    phase_offset=st.integers(0, 100),
)
def test_hand_built_modules_match_oracle(module, seed, max_blocks, phase_offset):
    assert_same_run(module, InputSpec("t", seed, max_blocks, phase_offset))


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_stages=st.integers(1, 4),
    leaves=st.integers(1, 3),
    dispatch=st.sampled_from(["chain", "zipf"]),
    split=st.booleans(),
    phase_period=st.sampled_from([0, 64, 1000]),
    budget=st.integers(1, 20_000),
)
def test_generated_workloads_match_oracle(
    seed, n_stages, leaves, dispatch, split, phase_period, budget
):
    spec = WorkloadSpec(
        name="gen",
        seed=seed,
        n_stages=n_stages,
        leaves_per_stage=leaves,
        work_blocks=3,
        n_cold_functions=4,
        cold_function_blocks=3,
        dispatch=dispatch,
        phase_stage_split=split,
        phase_period=phase_period,
        test_blocks=budget,
        ref_blocks=budget,
    )
    module = build_program(spec)
    for input_spec in (spec.test_input(), spec.ref_input()):
        assert_same_run(module, input_spec)


def test_suite_programs_match_oracle():
    """The parity gate's digest, on a few suite programs."""
    ours, theirs, differ = compare(0.02, programs=("syn-mcf", "syn-gcc", "syn-sjeng"))
    assert differ == []
    assert ours == theirs
