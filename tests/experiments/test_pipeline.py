"""Unit tests for the experiment Lab (repro.experiments.pipeline).

These run at a very small scale so the whole file stays in seconds.
"""

import numpy as np
import pytest

from repro.experiments import BASELINE, Lab

SCALE = 0.05


@pytest.fixture(scope="module")
def lab():
    return Lab(scale=SCALE, noise_sigma=0.0)


def test_scale_validation():
    with pytest.raises(ValueError):
        Lab(scale=0.0)
    with pytest.raises(ValueError):
        Lab(scale=1.5)


def test_program_memoized(lab):
    p1 = lab.program("syn-mcf")
    p2 = lab.program("syn-mcf")
    assert p1 is p2
    assert p1.prog.name == "syn-mcf"
    assert p1.instr_count > 0


def test_program_builds_each_module_once(monkeypatch):
    from repro.workloads import suite

    calls = []
    real = suite.build_program

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(suite, "build_program", counting)
    fresh = Lab(scale=SCALE, noise_sigma=0.0)
    fresh.program("syn-mcf")
    fresh.program("syn-mcf")
    assert len(calls) == 1


def test_scale_shrinks_budgets(lab):
    p = lab.program("syn-mcf")
    from repro.workloads import SUITE

    assert p.ref_bundle.n_dynamic_blocks <= SUITE["syn-mcf"].spec.ref_blocks * SCALE + 1


def test_layout_memoized_and_kinds(lab):
    base = lab.layout("syn-mcf", BASELINE)
    assert base is lab.layout("syn-mcf", BASELINE)
    opt = lab.layout("syn-mcf", "function-affinity")
    assert opt.kind.value == "function-reorder"


def test_supports_reflects_suite_metadata(lab):
    assert not lab.supports("syn-perlbench", "bb-affinity")
    assert not lab.supports("syn-povray", "bb-trg")
    assert lab.supports("syn-perlbench", "function-affinity")
    assert lab.supports("syn-gcc", "bb-affinity")


def test_lines_cached_and_int32(lab):
    lines = lab.lines("syn-mcf", BASELINE)
    assert lines.dtype == np.int32
    assert lines is lab.lines("syn-mcf", BASELINE)


def test_solo_miss_channels(lab):
    sim = lab.solo_miss("syn-mcf", BASELINE, channel="sim")
    hw = lab.solo_miss("syn-mcf", BASELINE, channel="hw")
    assert sim.instructions == hw.instructions
    assert sim.ratio >= 0
    with pytest.raises(ValueError):
        lab.solo_miss("syn-mcf", BASELINE, channel="bogus")


def test_corun_independent_of_request_order():
    """The co-run simulation is not symmetric (thread order, address
    offset), so a pair's result must not be derived from its swap: (a, b)
    answers the same whether or not (b, a) was asked first."""
    a = ("syn-gcc", BASELINE)
    b = ("syn-perlbench", BASELINE)
    fresh = Lab(scale=SCALE).corun_timing(a, b).makespan
    after_swap = Lab(scale=SCALE)
    after_swap.corun_timing(b, a)
    assert after_swap.corun_timing(a, b).makespan == fresh


def test_scheduling_pair_cost_is_symmetric():
    from repro.experiments.exp_scheduling import pair_cost

    ab = pair_cost(Lab(scale=SCALE), BASELINE, "syn-gcc", "syn-perlbench")
    assert pair_cost(Lab(scale=SCALE), BASELINE, "syn-perlbench", "syn-gcc") == ab


def test_corun_contention_visible(lab):
    solo = lab.solo_miss("syn-mcf", BASELINE, channel="sim").ratio
    corun = lab.corun_miss(
        ("syn-mcf", BASELINE), ("syn-gamess", BASELINE), channel="sim"
    )[0].ratio
    assert corun > solo


def test_corun_speedup_sane(lab):
    s = lab.corun_speedup("syn-mcf", "function-affinity", "syn-sjeng")
    assert 0.8 < s < 1.3


def test_timing_pieces(lab):
    cost = lab.solo_cost("syn-mcf", BASELINE)
    assert cost.total_cycles > cost.compute_cycles
    timing = lab.corun_timing(("syn-mcf", BASELINE), ("syn-sjeng", BASELINE))
    assert timing.makespan <= timing.solo_cycles[0] + timing.solo_cycles[1]
    assert timing.corun_slowdown(0) >= 1.0


def _oracle_solo_miss(lab, name, layout, channel):
    """A solo cell measured by the event-driven simulator directly."""
    from repro.cache import simulate
    from repro.experiments.pipeline import MissRatios
    from repro.machine.counters import measure_solo

    stream = lab.lines(name, layout)
    prepared = lab.program(name)
    if channel == "sim":
        stats = simulate(stream, lab.cache_cfg, prefetch=False)
        return MissRatios(stats.misses, prepared.instr_count)
    reading = measure_solo(
        stream,
        prepared.instr_count,
        lab.cache_cfg,
        noise_sigma=lab.noise_sigma,
        measurement_id=f"{name}/{layout}",
    )
    return MissRatios(reading.icache_misses, reading.instructions)


class TestKernelRouting:
    """The sim channel rides the stack-distance kernel on the lab's tier
    and must be bit-identical to the event-driven simulator."""

    CELLS = [
        (name, layout, channel)
        for name in ("syn-mcf", "syn-sjeng")
        for layout in (BASELINE, "function-affinity")
        for channel in ("sim", "hw")
    ]

    def test_solo_miss_parity_with_scalar_oracle(self):
        fast = Lab(scale=SCALE, noise_sigma=0.0)
        scalar = Lab(scale=SCALE, noise_sigma=0.0, kernel_backend="scalar")
        for cell in self.CELLS:
            expected = _oracle_solo_miss(fast, *cell)
            assert fast.solo_miss(*cell) == expected, cell
            assert scalar.solo_miss(*cell) == expected, cell
        assert fast.counters["kernel_cells"] > 0
        assert fast.counters["kernel_passes"] > 0
        assert scalar.backend.name == "scalar"
        assert scalar.counters["kernel_cells"] == fast.counters["kernel_cells"]

    def test_precompute_solo_kernel_fanout_parity(self):
        from repro.perf import SimMemo

        batched = Lab(scale=SCALE, noise_sigma=0.0, memo=SimMemo())
        batched.precompute_solo(self.CELLS, jobs=2)
        for cell in self.CELLS:
            assert batched.solo_miss(*cell) == _oracle_solo_miss(batched, *cell), cell
        # The second precompute replays histograms from the memo.
        again = Lab(scale=SCALE, noise_sigma=0.0, memo=batched.memo)
        again.precompute_solo(self.CELLS, jobs=2)
        assert again.counters["kernel_passes"] == 0
        assert again.counters["kernel_cells"] > 0

    def test_histogram_shared_across_assoc_family(self):
        lab = Lab(scale=SCALE, noise_sigma=0.0)
        h4 = lab.histogram("syn-mcf", BASELINE)
        assert lab.histogram("syn-mcf", BASELINE) is h4
        assert lab.counters["kernel_passes"] == 1
        # One histogram answers other associativities of the family.
        assert h4.misses(1) >= h4.misses(8)

    def test_hw_channel_never_uses_kernel(self):
        lab = Lab(scale=SCALE, noise_sigma=0.0)
        lab.solo_miss("syn-mcf", BASELINE, channel="hw")
        assert lab.counters["kernel_cells"] == 0
        assert lab.counters["sim_accesses"] > 0


class TestAnalysisRouting:
    """Locality-model kernel routing: bit-identical layouts and counter
    accounting."""

    LAYOUTS = ("function-affinity", "function-trg", "bb-affinity", "bb-trg")

    @staticmethod
    def _same_layout(a, b):
        am, bm = a.address_map, b.address_map
        return (
            am.order == bm.order
            and np.array_equal(am.starts, bm.starts)
            and np.array_equal(am.sizes, bm.sizes)
            and am.added_jumps == bm.added_jumps
        )

    def test_layout_parity_fast_vs_scalar(self):
        fast = Lab(scale=SCALE, noise_sigma=0.0)
        scalar = Lab(scale=SCALE, noise_sigma=0.0, kernel_backend="scalar")
        for layout_name in self.LAYOUTS:
            assert self._same_layout(
                fast.layout("syn-mcf", layout_name),
                scalar.layout("syn-mcf", layout_name),
            ), layout_name
        for lab in (fast, scalar):
            assert lab.counters["analysis_cells"] == len(self.LAYOUTS)
            assert lab.counters["analysis_passes"] == len(self.LAYOUTS)
            assert lab.counters["analysis_accesses"] > 0

    def test_lab_optimize_inherits_fast_analysis_override(self, monkeypatch):
        """``Lab.optimize`` runs a caller's config on the lab's tier."""
        from repro.core import optimizers
        from repro.core.layout import Granularity
        from repro.core.optimizers import Model, OptimizerConfig

        tiers = []
        resolve = optimizers._backend

        def spy(config):
            tiers.append(config.kernel_backend)
            return resolve(config)

        monkeypatch.setattr(optimizers, "_backend", spy)
        cfg = OptimizerConfig(w_max=8)
        fast = Lab(scale=SCALE, noise_sigma=0.0)
        scalar = Lab(scale=SCALE, noise_sigma=0.0, kernel_backend="scalar")
        a = fast.optimize("syn-mcf", Granularity.FUNCTION, Model.AFFINITY, cfg)
        b = scalar.optimize("syn-mcf", Granularity.FUNCTION, Model.AFFINITY, cfg)
        assert self._same_layout(a, b)
        assert tiers == [None, "scalar"]
        assert fast.counters["analysis_cells"] == 1
        assert scalar.counters["analysis_cells"] == 1

    def test_repeated_layout_config_hits_analysis_memo(self):
        """Two optimizers sharing one analysis (same trace + params)
        compute it once and replay it the second time."""
        from repro.core.optimizers import Model, OptimizerConfig
        from repro.core.layout import Granularity

        lab = Lab(scale=SCALE, noise_sigma=0.0)
        cfg = OptimizerConfig(w_max=8)
        lab.optimize("syn-mcf", Granularity.FUNCTION, Model.AFFINITY, cfg)
        assert lab.counters["analysis_memo_hits"] == 0
        lab.optimize("syn-mcf", Granularity.FUNCTION, Model.AFFINITY, cfg)
        assert lab.counters["analysis_memo_hits"] == 1
        assert lab.counters["analysis_passes"] == 1  # only the first ran
