"""Every optimizer emits a permutation (lint rule L006).

For small suite programs, each of the four optimizers, under drawn
optimizer settings, must lay out every symbol of the module exactly once
and produce an address map the L006 layout-integrity audits pass without
an error.  A basic-block layout's ``order`` is the full gid permutation.
A function layout's ``order`` is the function list the optimizer fed to
the transform, which may name only the profiled functions: it must be a
duplicate-free prefix of the laid-out function sequence, which in turn
must be a permutation of the module's functions.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OPTIMIZERS, OptimizerConfig
from repro.engine import collect_trace
from repro.engine.state import InputSpec
from repro.ir import LayoutKind
from repro.lint.diagnostics import Severity
from repro.lint.integrity import (
    audit_address_map,
    audit_function_order,
    audit_gid_order,
)
from repro.workloads import build

PROGRAMS = ("syn-mcf", "syn-sjeng", "syn-lbm")


@functools.cache
def _profiled(name: str):
    """A suite program's module and a short test-input profile of it."""
    prog, module = build(name)
    spec = prog.spec.test_input()
    return module, collect_trace(module, InputSpec(spec.name, seed=spec.seed, max_blocks=5_000))


def _errors(diagnostics) -> list[str]:
    return [d.message for d in diagnostics if d.severity is Severity.ERROR]


@settings(max_examples=24, deadline=None)
@given(
    name=st.sampled_from(PROGRAMS),
    optimizer=st.sampled_from(sorted(OPTIMIZERS)),
    w_max=st.integers(2, 20),
    prune_k=st.sampled_from([3, 40, 10_000]),
    trg_window_factor=st.sampled_from([0.5, 2.0]),
)
def test_every_optimizer_emits_a_permutation(name, optimizer, w_max, prune_k, trg_window_factor):
    module, bundle = _profiled(name)
    config = OptimizerConfig(w_max=w_max, prune_k=prune_k, trg_window_factor=trg_window_factor)
    layout = OPTIMIZERS[optimizer](module, bundle, config)

    amap = layout.address_map
    assert _errors(audit_address_map(module, amap)) == []
    assert sorted(amap.order) == list(range(module.n_blocks))
    if layout.kind is LayoutKind.FUNCTION:
        assert _errors(audit_function_order(module, layout.order)) == []
        owner = module.function_of_gid()
        laid_out = [owner[gid] for gid in amap.order]
        runs = [f for i, f in enumerate(laid_out) if i == 0 or laid_out[i - 1] != f]
        assert sorted(runs) == sorted(f.name for f in module.functions)
        assert runs[: len(layout.order)] == list(layout.order)
    else:
        assert layout.kind is LayoutKind.BASIC_BLOCK
        assert _errors(audit_gid_order(module, layout.order, require_complete=True)) == []
        assert list(layout.order) == list(amap.order)
