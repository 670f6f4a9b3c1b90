"""Unit tests for the synthetic program generator (repro.workloads.generator)."""

import numpy as np

from repro.engine import collect_trace
from repro.ir import validate_module
from repro.workloads.generator import WorkloadSpec, _partial_shuffle, build_program


def small_spec(**kw):
    params = dict(
        name="t",
        seed=5,
        n_stages=4,
        leaves_per_stage=3,
        work_blocks=4,
        n_cold_functions=5,
        test_blocks=5_000,
        ref_blocks=8_000,
    )
    params.update(kw)
    return WorkloadSpec(**params)


def test_generated_module_validates():
    module = build_program(small_spec())
    assert validate_module(module) is not None  # no exception
    assert "main" in module
    assert module.n_functions == 1 + 4 + 4 * 3 + 5


def test_deterministic_generation():
    m1 = build_program(small_spec())
    m2 = build_program(small_spec())
    assert [f.name for f in m1.functions] == [f.name for f in m2.functions]
    assert m1.block_sizes() == m2.block_sizes()


def test_different_seeds_differ():
    m1 = build_program(small_spec(seed=1))
    m2 = build_program(small_spec(seed=2))
    assert (
        [f.name for f in m1.functions] != [f.name for f in m2.functions]
        or m1.block_sizes() != m2.block_sizes()
    )


def test_runs_and_stays_within_budget():
    spec = small_spec()
    module = build_program(spec)
    bundle = collect_trace(module, spec.ref_input())
    assert 0 < bundle.n_dynamic_blocks <= spec.ref_blocks


def test_test_and_ref_inputs_differ():
    spec = small_spec()
    module = build_program(spec)
    t = collect_trace(module, spec.test_input())
    r = collect_trace(module, spec.ref_input())
    assert t.n_dynamic_blocks != r.n_dynamic_blocks
    assert spec.test_input().seed != spec.ref_input().seed


def test_phase_split_uses_both_groups():
    spec = small_spec(phase_stage_split=True, phase_period=512, ref_blocks=20_000)
    module = build_program(spec)
    bundle = collect_trace(module, spec.ref_input())
    func_names = set(
        bundle.function_names[i] for i in np.unique(bundle.func_trace)
    )
    # stages from both halves execute.
    assert "stage_0" in func_names
    assert f"stage_{spec.n_stages - 1}" in func_names


def test_zipf_dispatch_popularity_gradient():
    spec = small_spec(dispatch="zipf", zipf_s=1.3, n_stages=6, ref_blocks=40_000)
    module = build_program(spec)
    bundle = collect_trace(module, spec.ref_input())
    names = bundle.function_names
    counts = np.bincount(bundle.func_trace, minlength=len(names))
    by_name = {names[i]: int(counts[i]) for i in range(len(names))}
    # stage_0 is the most popular stage under phase-A weights.
    assert by_name["stage_0"] > by_name[f"stage_{spec.n_stages - 1}"]


def test_no_scramble_keeps_generation_order():
    spec = small_spec(scramble_functions=0.0, scramble_blocks=0.0)
    module = build_program(spec)
    names = [f.name for f in module.functions]
    assert names[0].startswith("leaf_")
    assert names[-1] == "main"


def test_partial_shuffle_properties():
    rng = np.random.default_rng(0)
    seq = list(range(50))
    none = _partial_shuffle(seq, rng, 0.0)
    assert none == seq
    full = _partial_shuffle(seq, np.random.default_rng(1), 1.0)
    assert sorted(full) == seq
    assert full != seq
    half = _partial_shuffle(seq, np.random.default_rng(2), 0.3)
    moved = sum(a != b for a, b in zip(seq, half))
    assert 0 < moved <= 16  # at most k elements displaced


def test_spec_input_properties():
    spec = small_spec(phase_period=900)
    assert spec.test_input().name == "test"
    assert spec.ref_input().phase_offset == 300
    no_phase = small_spec(phase_period=0)
    assert no_phase.ref_input().phase_offset == 0
