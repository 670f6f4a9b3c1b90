"""Unit tests for layout quality analysis (repro.analysis)."""

import numpy as np

from repro.analysis import analyze_layout, hot_blocks
from repro.cache import CacheConfig, PAPER_L1I
from repro.core import OptimizerConfig, bb_affinity
from repro.engine import collect_trace
from repro.ir import baseline_layout


def test_hot_blocks_threshold(tiny_module, tiny_bundle):
    all_executed = hot_blocks(tiny_module, tiny_bundle, hot_fraction=0.0)
    counts = np.bincount(tiny_bundle.bb_trace, minlength=tiny_module.n_blocks)
    assert set(all_executed) == set(np.flatnonzero(counts > 0).tolist())
    few = hot_blocks(tiny_module, tiny_bundle, hot_fraction=0.3)
    assert set(few) <= set(all_executed)
    assert len(few) < len(all_executed)


def test_quality_fields_sane(tiny_module, tiny_bundle):
    q = analyze_layout(
        tiny_module, tiny_bundle, baseline_layout(tiny_module).address_map, PAPER_L1I
    )
    assert 0 < q.line_utilization <= 1.0
    assert q.n_hot_blocks > 0
    assert q.n_hot_lines > 0
    assert q.set_imbalance >= 0.0
    assert 0.0 <= q.overcommitted_fraction <= 1.0


def test_no_hot_blocks_degenerate(tiny_module, tiny_bundle):
    q = analyze_layout(
        tiny_module,
        tiny_bundle,
        baseline_layout(tiny_module).address_map,
        PAPER_L1I,
        hot_fraction=1.0,  # nothing covers 100% of executions
    )
    assert q.n_hot_blocks == 0
    assert q.line_utilization == 1.0


def test_optimizer_improves_utilization_on_suite_program():
    from repro.workloads import build

    prog, module = build("syn-sjeng", ref_blocks=20_000, test_blocks=15_000)
    bundle = collect_trace(module, prog.spec.test_input())
    cache = PAPER_L1I
    base_q = analyze_layout(
        module, bundle, baseline_layout(module).address_map, cache
    )
    opt = bb_affinity(module, bundle, OptimizerConfig())
    opt_q = analyze_layout(module, bundle, opt.address_map, cache)
    # packing hot blocks must raise line utilization.
    assert opt_q.line_utilization > base_q.line_utilization
    # and the footprint (touched hot lines) must shrink.
    assert opt_q.n_hot_lines <= base_q.n_hot_lines


def test_set_imbalance_detects_pathological_placement():
    """Blocks placed a full cache apart land in the same set."""
    from repro.ir import ModuleBuilder

    cache = CacheConfig(size_bytes=1024, assoc=1, line_bytes=64)  # 16 sets
    b = ModuleBuilder("m")
    f = b.function("main")
    # 17 hot blocks of exactly one line each.
    for i in range(17):
        nxt = f"b{i + 1}" if i < 16 else None
        if nxt:
            f.block(f"b{i}", 16).jump(nxt)
        else:
            f.block(f"b{i}", 16).exit()
    module = b.build()
    trace = np.tile(np.arange(17), 50).astype(np.int32)

    class FakeBundle:
        bb_trace = trace

    dense = baseline_layout(module).address_map
    q = analyze_layout(module, FakeBundle, dense, cache)
    # 17 one-line blocks over 16 sets: nearly perfectly balanced.
    assert q.set_imbalance < 0.5
    assert q.line_utilization == 1.0
