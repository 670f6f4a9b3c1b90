"""Unit tests for the four optimizers (repro.core.optimizers)."""

import pytest

from repro.cache import CacheConfig, PAPER_L1I, simulate
from repro.core import (
    COMPARATORS,
    LAYOUTS,
    OPTIMIZERS,
    Granularity,
    Model,
    OptimizerConfig,
    build_layout,
    optimize,
)
from repro.engine import fetch_lines
from repro.ir import LayoutKind, baseline_layout


def test_registry_contains_the_four(tiny_module, tiny_bundle):
    assert set(OPTIMIZERS) == {
        "function-affinity",
        "bb-affinity",
        "function-trg",
        "bb-trg",
    }
    for name, optimizer in OPTIMIZERS.items():
        layout = optimizer(tiny_module, tiny_bundle, OptimizerConfig(w_max=8))
        expected = (
            LayoutKind.FUNCTION if name.startswith("function") else LayoutKind.BASIC_BLOCK
        )
        assert layout.kind is expected
        assert sorted(layout.address_map.order) == list(range(tiny_module.n_blocks))
        assert name.split("-")[1][:3] in layout.note[:12] or layout.note


def test_function_layout_keeps_functions_contiguous(tiny_module, tiny_bundle):
    layout = OPTIMIZERS["function-affinity"](tiny_module, tiny_bundle, OptimizerConfig(w_max=8))
    order = layout.address_map.order
    func_of = tiny_module.function_of_gid()
    runs = [func_of[g] for g in order]
    # each function name appears as one contiguous run.
    seen = set()
    prev = None
    for name in runs:
        if name != prev:
            assert name not in seen, f"function {name} split in layout"
            seen.add(name)
        prev = name


def test_optimizers_deterministic(tiny_module, tiny_bundle):
    cfg = OptimizerConfig(w_max=8)
    for name, optimizer in OPTIMIZERS.items():
        o1 = optimizer(tiny_module, tiny_bundle, cfg)
        o2 = optimizer(tiny_module, tiny_bundle, cfg)
        assert o1.address_map.order == o2.address_map.order


def test_catalog_builds_every_layout_with_one_call(tiny_module, tiny_bundle):
    """The catalog lists the baseline, the four and the comparators, and
    every entry takes the same call, memo and stats included."""
    assert list(LAYOUTS) == ["baseline", *OPTIMIZERS, *COMPARATORS]
    cfg = OptimizerConfig(w_max=8)
    for name in LAYOUTS:
        layout = build_layout(name, tiny_module, tiny_bundle, cfg, memo=None, stats={})
        assert sorted(layout.address_map.order) == list(range(tiny_module.n_blocks))
    baseline = build_layout("baseline", tiny_module, None)
    assert baseline.address_map.order == baseline_layout(tiny_module).address_map.order


def test_unknown_model_rejected(tiny_module, tiny_bundle):
    with pytest.raises(ValueError):
        optimize(tiny_module, tiny_bundle, Granularity.BASIC_BLOCK, "magic")


def test_affinity_groups_phase_correlated_halves(tiny_module, tiny_bundle):
    """Figure 3 scenario: the phase-correlated halves of leaves x and y
    must land adjacently under BB affinity, unlike in declaration order."""
    cfg = OptimizerConfig(w_max=8)
    layout = optimize(tiny_module, tiny_bundle, Granularity.BASIC_BLOCK, Model.AFFINITY, cfg)
    order = layout.address_map.order
    pos = {g: i for i, g in enumerate(order)}
    xa = tiny_module.function("x").block("a").gid
    ya = tiny_module.function("y").block("a").gid
    xb = tiny_module.function("x").block("b").gid
    yb = tiny_module.function("y").block("b").gid
    # the hot 'a' halves cluster and the cold 'b' halves cluster; the two
    # clusters are not interleaved.
    da = abs(pos[xa] - pos[ya])
    db = abs(pos[xb] - pos[yb])
    cross = abs(pos[xa] - pos[yb])
    assert da < cross or db < cross


def test_bb_affinity_reduces_misses_on_structured_workload():
    from repro.workloads.generator import WorkloadSpec, build_program
    from repro.engine import collect_trace

    spec = WorkloadSpec(
        name="t",
        seed=9,
        n_stages=10,
        leaves_per_stage=8,
        hot_block_instr=(4, 14),
        test_blocks=30_000,
        ref_blocks=60_000,
        phase_stage_split=True,
    )
    module = build_program(spec)
    test = collect_trace(module, spec.test_input())
    ref = collect_trace(module, spec.ref_input())
    cache = CacheConfig(size_bytes=8 * 1024, assoc=4, line_bytes=64)
    base = baseline_layout(module)
    base_misses = simulate(
        fetch_lines(ref.bb_trace, base.address_map, 64), cache
    ).misses
    cfg = OptimizerConfig(cache=cache)
    layout = OPTIMIZERS["bb-affinity"](module, test, cfg)
    opt_misses = simulate(
        fetch_lines(ref.bb_trace, layout.address_map, 64), cache
    ).misses
    assert opt_misses < base_misses


def test_prune_k_limits_model_input(tiny_module, tiny_bundle):
    # prune_k=1 keeps only the most popular block; the rest fall back to
    # declaration order, still a legal full layout.
    cfg = OptimizerConfig(w_max=4, prune_k=1)
    layout = optimize(
        tiny_module, tiny_bundle, Granularity.BASIC_BLOCK, Model.AFFINITY, cfg
    )
    assert sorted(layout.address_map.order) == list(range(tiny_module.n_blocks))


def test_config_w_values():
    cfg = OptimizerConfig(w_min=3, w_max=5)
    assert list(cfg.w_values()) == [3, 4, 5]
    assert cfg.cache == PAPER_L1I


@pytest.mark.parametrize("w_min, w_max", [(0, 20), (-3, 20), (6, 5)])
def test_config_rejects_bad_window_range(w_min, w_max):
    with pytest.raises(ValueError):
        OptimizerConfig(w_min=w_min, w_max=w_max)


def test_config_rejects_unknown_kernel_backend():
    # Rejected at construction, not at the first analysis (which may run
    # inside a worker process).
    with pytest.raises(ValueError, match="unknown kernel backend"):
        OptimizerConfig(kernel_backend="magic")
    for name in (None, "numpy", "scalar"):
        assert OptimizerConfig(kernel_backend=name).kernel_backend == name
