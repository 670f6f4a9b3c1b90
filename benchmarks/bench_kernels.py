"""Microbenchmarks of the library's hot kernels.

Unlike the per-figure benches (one-shot experiment drivers), these are
classic pytest-benchmark measurements with multiple rounds: the affinity
one-pass analysis, TRG construction + reduction, the cache simulators, the
footprint formula, and the interpreter.  They track the performance claims
in the module docstrings (e.g. ~2M simulated accesses/second).
"""

import numpy as np
import pytest

from repro.cache import PAPER_L1I, simulate, simulate_shared
from repro.core import (
    AffinityAnalysis,
    build_hierarchy,
    build_trg,
    build_trg_fast,
    layout_order,
    reduce_trg,
)
from repro.engine import collect_trace, fetch_lines
from repro.ir import baseline_layout
from repro.locality import footprint_curve
from repro.perf import resolve_backend
from repro.trace import trim
from repro.workloads import build


@pytest.fixture(scope="module")
def sjeng():
    prog, module = build("syn-sjeng", ref_blocks=60_000, test_blocks=30_000)
    test = collect_trace(module, prog.spec.test_input())
    ref = collect_trace(module, prog.spec.ref_input())
    layout = baseline_layout(module)
    lines = fetch_lines(ref.bb_trace, layout.address_map, 64)
    return module, test, ref, lines


def bench_interpreter(benchmark):
    prog, module = build("syn-sjeng", ref_blocks=60_000)
    result = benchmark(collect_trace, module, prog.spec.ref_input())
    assert result.n_dynamic_blocks > 0


def bench_affinity_analysis(benchmark, sjeng):
    module, test, _, _ = sjeng
    trimmed = trim(test.bb_trace)

    def run():
        return AffinityAnalysis(trimmed, w_max=20)

    analysis = benchmark(run)
    assert analysis.symbols


def bench_affinity_hierarchy(benchmark, sjeng):
    module, test, _, _ = sjeng
    analysis = AffinityAnalysis(trim(test.bb_trace), w_max=20)
    order = benchmark(lambda: layout_order(build_hierarchy(analysis)))
    assert order


def bench_trg_construction(benchmark, sjeng):
    module, test, _, _ = sjeng
    trimmed = trim(test.bb_trace)
    trg = benchmark(build_trg, trimmed, 512)
    assert trg.n_edges > 0


def bench_trg_reduction(benchmark, sjeng):
    module, test, _, _ = sjeng
    trg = build_trg_fast(trim(test.bb_trace), 512)
    result = benchmark(reduce_trg, trg, 128)
    assert result.order


def bench_cache_simulation(benchmark, sjeng):
    _, _, _, lines = sjeng
    stats = benchmark(simulate, lines, PAPER_L1I)
    assert stats.accesses == lines.shape[0]


def bench_shared_cache_simulation(benchmark, sjeng):
    _, _, _, lines = sjeng
    peer = lines + (1 << 22)
    stats = benchmark(simulate_shared, [lines, peer], PAPER_L1I)
    assert stats[0].accesses >= lines.shape[0]


def bench_fetch_expansion(benchmark, sjeng):
    module, _, ref, _ = sjeng
    amap = baseline_layout(module).address_map
    lines = benchmark(fetch_lines, ref.bb_trace, amap, 64)
    assert lines.shape[0] > 0


def bench_footprint_curve(benchmark, sjeng):
    _, _, _, lines = sjeng
    curve = benchmark(footprint_curve, lines)
    assert curve.m > 0


@pytest.mark.parametrize("tier", ["scalar", "numpy"])
def bench_stack_distance_tiers(benchmark, tier):
    """Fully associative reuse (stack) distances: one histogram at
    ``n_sets=1`` on each kernel tier."""
    rng = np.random.default_rng(0)
    trace = rng.integers(0, 512, 50_000)
    hist = benchmark(resolve_backend(tier).histogram, trace, 1)
    assert hist.accesses == trace.shape[0]
