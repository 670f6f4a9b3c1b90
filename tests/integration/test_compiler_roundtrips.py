"""Integration: artifact round-trips and cross-module consistency."""

import numpy as np
import pytest

from repro.cache import PAPER_L1I, simulate
from repro.compiler import Driver, load_layout
from repro.engine import collect_trace, fetch_lines, load_bundle, save_bundle
from repro.lint import run_lint
from repro.workloads import build


@pytest.fixture(scope="module")
def small_build(tmp_path_factory):
    prog, module = build("syn-mcf", ref_blocks=15_000, test_blocks=8_000)
    driver = Driver(optimizers=["bb-affinity", "function-affinity"])
    out = tmp_path_factory.mktemp("build")
    result = driver.build(
        module, prog.spec.test_input(), prog.spec.ref_input(), build_dir=out
    )
    return prog, module, result, out


def test_saved_profile_drives_same_optimization(small_build, tmp_path):
    """trace.npz -> load -> re-optimize must reproduce the layout."""
    prog, module, result, out = small_build
    loaded = load_bundle(out / "trace.npz")
    from repro.core import OPTIMIZERS, OptimizerConfig

    relayout = OPTIMIZERS["bb-affinity"](module, loaded, OptimizerConfig())
    assert relayout.address_map.order == result.layouts["bb-affinity"].address_map.order


def test_saved_layout_reproduces_miss_count(small_build):
    prog, module, result, out = small_build
    ref = collect_trace(module, prog.spec.ref_input())
    for name in ("baseline", "bb-affinity"):
        loaded = load_layout(out / f"layout-{name}.json")
        lines = fetch_lines(ref.bb_trace, loaded.address_map, 64)
        mr = simulate(lines, PAPER_L1I).misses / ref.instr_count
        assert mr == pytest.approx(result.miss_ratios[name], rel=1e-12)


def test_quality_metrics_track_miss_ratios(small_build):
    """On the same profile, a layout with (strictly) better line utilization
    (lint rule L004) should not have a much worse miss ratio — the lint
    lens agrees directionally with the simulator."""
    prog, module, result, out = small_build
    util = {
        name: run_lint(module, layout, result.profile, PAPER_L1I).metrics["L004"]
        for name, layout in result.layouts.items()
    }
    if util["bb-affinity"]["mean_utilization"] > util["baseline"]["mean_utilization"]:
        assert result.miss_ratios["bb-affinity"] <= result.miss_ratios["baseline"] * 1.5


def test_bundle_roundtrip_preserves_everything(small_build, tmp_path):
    prog, module, result, out = small_build
    path = tmp_path / "again.npz"
    save_bundle(result.profile, path)
    again = load_bundle(path)
    assert np.array_equal(again.bb_trace, result.profile.bb_trace)
    assert again.block_names == result.profile.block_names
    assert again.instr_count == result.profile.instr_count
