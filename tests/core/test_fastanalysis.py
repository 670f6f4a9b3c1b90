"""Parity matrix: repro.core.fastanalysis kernels vs the scalar oracles.

The contract being pinned (ISSUE 5 acceptance): kernel outputs are
**bit-identical** to ``AffinityAnalysis`` / ``build_trg`` — same coverage
histograms, same affine-pair sets at every w and coverage threshold, same
TRG edge weights and node order — across trace shapes, ``w_max``, time
horizons, and stack capacities.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.affinity import AffinityAnalysis, affine_pairs_naive
from repro.core.fastanalysis import (
    AffinityCoverage,
    affinity_coverage,
    analysis_from_coverage,
    build_trg_fast,
    coverage_from_analysis,
)
from repro.core.trg import TRG, build_trg

FIG1 = np.array([1, 4, 2, 4, 2, 3, 5, 1, 4])


def random_trace(seed: int, n: int, n_syms: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        # loop-heavy: repeated phase blocks interleaved with noise
        phase = rng.integers(0, n_syms, size=max(2, n_syms // 3))
        reps = int(np.ceil(n / phase.shape[0]))
        base = np.tile(phase, reps)[:n]
        noise = rng.integers(0, n_syms, size=n)
        mask = rng.random(n) < 0.3
        return np.where(mask, noise, base)
    return rng.integers(0, n_syms, size=n)


def assert_coverage_equal(kernel: AffinityCoverage, oracle: AffinityAnalysis):
    assert kernel.n_occ == oracle._n_occ
    assert kernel.first_occ == oracle._first_occ
    # The oracle keeps zero histograms for pairs whose every record was
    # later improved; both sides must agree on the pair table, row for
    # row in (x, y) order, and on every histogram exactly.
    assert kernel.pairs.dtype == kernel.cov.dtype == np.int64
    np.testing.assert_array_equal(kernel.pairs, oracle.pairs)
    np.testing.assert_array_equal(kernel.cov, oracle.cov)


def assert_trg_equal(kernel: TRG, oracle: TRG):
    """Same nodes in first-occurrence order, same edge rows, same weights."""
    for name in ("nodes", "edges", "weights"):
        got, want = getattr(kernel, name), getattr(oracle, name)
        assert got.dtype == np.int64, name
        np.testing.assert_array_equal(got, want, err_msg=name)


class TestAffinityParity:
    def test_fig1_trace(self):
        oracle = AffinityAnalysis(FIG1, w_max=4)
        kernel = affinity_coverage(FIG1, w_max=4)
        assert_coverage_equal(kernel, oracle)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "n,n_syms", [(60, 5), (200, 12), (400, 30), (1000, 8)]
    )
    @pytest.mark.parametrize("w_max", [1, 2, 3, 8, 20])
    def test_randomized_matrix(self, seed, n, n_syms, w_max):
        t = random_trace(seed * 1000 + n, n, n_syms)
        oracle = AffinityAnalysis(t, w_max=w_max)
        kernel = affinity_coverage(t, w_max=w_max)
        assert_coverage_equal(kernel, oracle)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("horizon", [0, 1, 3, 10, 50])
    def test_time_horizon(self, seed, horizon):
        t = random_trace(77 + seed, 300, 14)
        oracle = AffinityAnalysis(t, w_max=6, time_horizon=horizon)
        kernel = affinity_coverage(t, w_max=6, time_horizon=horizon)
        assert_coverage_equal(kernel, oracle)

    @pytest.mark.parametrize("seed", range(6))
    def test_affine_pairs_all_w_and_coverages(self, seed):
        t = random_trace(31 + seed, 250, 10)
        w_max = 12
        oracle = AffinityAnalysis(t, w_max=w_max)
        covg = affinity_coverage(t, w_max=w_max)
        for coverage in (1.0, 0.9, 0.5):
            o = AffinityAnalysis(t, w_max=w_max, coverage=coverage)
            k = analysis_from_coverage(t, covg, coverage=coverage)
            for w in range(2, w_max + 1):
                assert k.affine_pairs(w) == o.affine_pairs(w), (coverage, w)
        assert covg == coverage_from_analysis(oracle)

    @pytest.mark.parametrize("seed", range(3))
    def test_against_naive_definition(self, seed):
        t = random_trace(500 + seed, 80, 6)
        covg = affinity_coverage(t, w_max=6)
        k = analysis_from_coverage(t, covg)
        for w in (2, 4, 6):
            assert k.affine_pairs(w) == affine_pairs_naive(t, w)

    def test_queries_through_wrapper(self):
        t = random_trace(9, 150, 7)
        oracle = AffinityAnalysis(t, w_max=5)
        k = analysis_from_coverage(t, affinity_coverage(t, w_max=5))
        assert k.symbols == oracle.symbols
        for x in oracle.symbols:
            assert k.occurrences(x) == oracle.occurrences(x)
            assert k.first_occurrence(x) == oracle.first_occurrence(x)
            for y in oracle.symbols:
                for w in (2, 5):
                    assert k.covered(x, y, w) == oracle.covered(x, y, w)
                    assert k.is_affine(x, y, w) == oracle.is_affine(x, y, w)

    def test_degenerate_traces(self):
        for t in ([], [3], [3, 3, 3], [1, 2], [5, 5, 7, 7, 5]):
            arr = np.asarray(t, dtype=np.int64)
            oracle = AffinityAnalysis(arr, w_max=4) if len(t) else None
            kernel = affinity_coverage(arr, w_max=4)
            if oracle is not None:
                assert_coverage_equal(kernel, oracle)
            else:
                assert kernel.pairs.shape == (0, 2) and kernel.n_occ == {}
                assert kernel.cov.shape == (0, 5)

    def test_w_max_validation(self):
        with pytest.raises(ValueError):
            affinity_coverage(FIG1, w_max=0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("horizon", [None, 7])
    def test_sort_fallback_parity(self, seed, horizon, monkeypatch):
        """The sort-based merge (used when the linear-join scratch tables
        would not fit) is exact too — force it by shrinking the caps."""
        import repro.core.fastanalysis as fa

        t = random_trace(900 + seed, 250, 11)
        want = affinity_coverage(t, w_max=9, time_horizon=horizon)
        monkeypatch.setattr(fa, "_JOIN_TABLE_MAX", 0)
        monkeypatch.setattr(fa, "_PAIR_TABLE_MAX", 0)
        got = affinity_coverage(t, w_max=9, time_horizon=horizon)
        assert got == want
        oracle = AffinityAnalysis(t, w_max=9, time_horizon=horizon)
        assert_coverage_equal(got, oracle)

    def test_roundtrip_payload(self):
        t = random_trace(3, 200, 9)
        covg = affinity_coverage(t, w_max=7, time_horizon=25)
        back = AffinityCoverage.from_arrays(covg.to_arrays())
        assert back == covg
        assert list(back.n_occ) == list(covg.n_occ)  # dict order survives
        assert not back.pairs.flags.writeable and not back.cov.flags.writeable
        untimed = affinity_coverage(t, w_max=7)
        assert AffinityCoverage.from_arrays(untimed.to_arrays()).time_horizon is None
        # corruption raises, never silently misparses
        bad = covg.to_arrays()
        bad["kind"] = np.array("trg")
        with pytest.raises(ValueError):
            AffinityCoverage.from_arrays(bad)
        short = covg.to_arrays()
        short["cov"] = short["cov"][:, :-1]
        with pytest.raises(ValueError):
            AffinityCoverage.from_arrays(short)
        unpaired = covg.to_arrays()
        unpaired["pairs"] = unpaired["pairs"][:-1]
        with pytest.raises(ValueError):
            AffinityCoverage.from_arrays(unpaired)


class TestTRGParity:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n,n_syms", [(80, 6), (300, 15), (800, 40)])
    @pytest.mark.parametrize("window", [None, 1, 2, 3, 8, 64])
    def test_randomized_matrix(self, seed, n, n_syms, window):
        t = random_trace(seed * 7 + n, n, n_syms)
        oracle = build_trg(t, window_blocks=window)
        kernel = build_trg_fast(t, window_blocks=window)
        assert_trg_equal(kernel, oracle)

    def test_fig1_trace(self):
        for window in (None, 2, 3):
            oracle = build_trg(FIG1, window_blocks=window)
            kernel = build_trg_fast(FIG1, window_blocks=window)
            assert_trg_equal(kernel, oracle)

    def test_degenerate_traces(self):
        for t in ([], [3], [3, 3, 3]):
            arr = np.asarray(t, dtype=np.int64)
            oracle = build_trg(arr)
            kernel = build_trg_fast(arr)
            assert_trg_equal(kernel, oracle)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            build_trg_fast(FIG1, window_blocks=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_bincount_fallback_parity(self, seed, monkeypatch):
        """TRG edge aggregation via unique (pair table too large) matches
        the bincount fast path."""
        import repro.core.fastanalysis as fa

        t = random_trace(300 + seed, 400, 20)
        want = build_trg_fast(t, window_blocks=16)
        monkeypatch.setattr(fa, "_PAIR_TABLE_MAX", 0)
        got = build_trg_fast(t, window_blocks=16)
        assert_trg_equal(got, want)

    def test_payload_roundtrip(self):
        t = random_trace(11, 200, 12)
        trg = build_trg_fast(t, window_blocks=8)
        back = TRG.from_arrays(trg.to_arrays())
        assert_trg_equal(back, trg)
        assert back == trg
        with pytest.raises(ValueError):
            TRG.from_arrays(dict(trg.to_arrays(), kind=np.array("affinity")))
        unsorted = dict(trg.to_arrays(), edges=trg.edges[::-1], weights=trg.weights[::-1])
        with pytest.raises(ValueError):
            TRG.from_arrays(unsorted)
