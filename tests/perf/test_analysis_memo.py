"""Analysis-artifact memo entries (repro.perf.memo, analysis schema).

The contract under test: a memoized locality-model analysis returns an
artifact identical to a fresh kernel run; keys are sensitive to every
result-relevant parameter (and only those); disk entries survive process
turnover and tolerate corruption — including *targeted* corruption where
a valid payload lands under the wrong key.
"""

import numpy as np
import pytest

from repro.cache import PAPER_L1I
from repro.core import AffinityAnalysis, affinity_coverage, build_trg
from repro.core.fastanalysis import coverage_from_analysis
from repro.perf import (
    ANALYSIS_SCHEMA,
    SimMemo,
    affinity_key,
    histogram_key,
    memo_key,
    trg_key,
)

from .memo_entries import read_entry, schema_of, write_entry


@pytest.fixture
def trace():
    rng = np.random.default_rng(7)
    return rng.integers(0, 40, 3000).astype(np.int64)


class TestAnalysisKeys:
    def test_deterministic_and_dtype_canonicalized(self, trace):
        key = affinity_key(trace, w_max=12)
        assert key == affinity_key(trace.copy(), w_max=12)
        assert key == affinity_key(trace.astype(np.int32), w_max=12)

    def test_sensitive_to_trace_and_parameters(self, trace):
        other = trace.copy()
        other[11] += 1
        keys = {
            affinity_key(trace, w_max=12),
            affinity_key(other, w_max=12),
            affinity_key(trace, w_max=13),
            affinity_key(trace, w_max=12, time_horizon=50),
            trg_key(trace, window_blocks=64),
            trg_key(trace, window_blocks=65),
            trg_key(trace),
        }
        assert len(keys) == 7

    def test_distinct_from_other_key_spaces(self, trace):
        """The same stream must never collide across entry kinds."""
        assert affinity_key(trace, w_max=12) != trg_key(trace)
        assert affinity_key(trace, w_max=12) != memo_key(trace, PAPER_L1I)
        assert affinity_key(trace, w_max=12) != histogram_key(trace, 128)


class TestAffinityMemo:
    def test_hit_returns_identical_artifact(self, trace):
        memo = SimMemo()
        fresh = affinity_coverage(trace, w_max=12)
        first = memo.affinity_coverage(trace, w_max=12)
        hit = memo.affinity_coverage(trace, w_max=12)
        assert first == fresh
        assert hit == fresh
        assert (memo.hits, memo.misses) == (1, 1)

    def test_one_entry_serves_every_coverage_threshold(self, trace):
        """The coverage threshold is applied at query time, so the memo
        key deliberately omits it — one artifact answers all of them."""
        memo = SimMemo()
        covg = memo.affinity_coverage(trace, w_max=12)
        for coverage in (1.0, 0.9, 0.5):
            oracle = AffinityAnalysis(trace, 12, coverage=coverage)
            assert coverage_from_analysis(oracle) == covg
        assert memo.misses == 1

    def test_disk_persistence_across_instances(self, tmp_path, trace):
        fresh = affinity_coverage(trace, w_max=12, time_horizon=40)
        SimMemo(tmp_path).affinity_coverage(trace, w_max=12, time_horizon=40)
        reread = SimMemo(tmp_path)
        assert reread.affinity_coverage(trace, w_max=12, time_horizon=40) == fresh
        assert (reread.hits, reread.misses) == (1, 0)

    def test_corrupt_entry_unlinked_and_recomputed(self, tmp_path, trace):
        memo = SimMemo(tmp_path)
        key = affinity_key(trace, w_max=12)
        fresh = memo.affinity_coverage(trace, w_max=12)
        (tmp_path / f"{key}.npz").write_bytes(b"{ truncated")
        reread = SimMemo(tmp_path)
        assert reread.affinity_coverage(trace, w_max=12) == fresh
        assert (reread.hits, reread.misses) == (0, 1)
        # the corrupt file was replaced by a valid recomputed entry.
        assert schema_of(tmp_path / f"{key}.npz") == ANALYSIS_SCHEMA

    def test_stale_schema_entry_dropped(self, tmp_path, trace):
        memo = SimMemo(tmp_path)
        key = affinity_key(trace, w_max=12)
        memo.affinity_coverage(trace, w_max=12)
        path = tmp_path / f"{key}.npz"
        raw = read_entry(path)
        raw["schema"] = np.array("repro.perf.memo.analysis.v0")
        write_entry(path, raw)
        reread = SimMemo(tmp_path)
        reread.affinity_coverage(trace, w_max=12)
        assert reread.misses == 1
        assert schema_of(path) == ANALYSIS_SCHEMA

    def test_wrong_parameters_under_right_key_rejected(self, tmp_path, trace):
        """Targeted corruption: a *valid* payload computed for different
        parameters sitting under this key must not be served."""
        memo = SimMemo(tmp_path)
        memo.affinity_coverage(trace, w_max=12)
        wrong = affinity_coverage(trace, w_max=8).to_arrays()
        key = affinity_key(trace, w_max=12)
        write_entry(
            tmp_path / f"{key}.npz", {"schema": np.array(ANALYSIS_SCHEMA), **wrong}
        )
        reread = SimMemo(tmp_path)
        served = reread.affinity_coverage(trace, w_max=12)
        assert served.w_max == 12
        assert served == affinity_coverage(trace, w_max=12)
        assert reread.misses == 1  # the mismatched entry never hit


def _with_edge(raw: dict, x: int, y: int, w: int) -> dict:
    """A TRG entry with one more ``(x, y)`` edge of weight ``w``."""
    return {
        **raw,
        "edges": np.vstack([raw["edges"], [[x, y]]]),
        "weights": np.append(raw["weights"], w),
    }


def _reweighted(raw: dict, w: int) -> dict:
    """A TRG entry whose first edge weighs ``w``."""
    weights = raw["weights"].copy()
    weights[0] = w
    return {**raw, "weights": weights}


class TestTrgMemo:
    def test_hit_matches_scalar_oracle(self, trace):
        memo = SimMemo()
        oracle = build_trg(trace, window_blocks=64)
        first = memo.trg(trace, window_blocks=64)
        hit = memo.trg(trace, window_blocks=64)
        assert first == oracle
        assert hit == oracle
        assert (memo.hits, memo.misses) == (1, 1)

    def test_hit_arrays_are_read_only(self, tmp_path, trace):
        """The memo hands out the graph it keeps, so no array of it can
        be written through — neither a fresh build's nor a disk read's;
        every replay stays equal to the scalar oracle."""
        oracle = build_trg(trace, window_blocks=64)
        for memo in (SimMemo(tmp_path), SimMemo(tmp_path)):
            got = memo.trg(trace, window_blocks=64)
            for arr in (got.nodes, got.edges, got.weights):
                with pytest.raises(ValueError):
                    arr[0] = 0
            assert memo.trg(trace, window_blocks=64) == oracle

    def test_disk_persistence_across_instances(self, tmp_path, trace):
        oracle = build_trg(trace, window_blocks=64)
        SimMemo(tmp_path).trg(trace, window_blocks=64)
        reread = SimMemo(tmp_path)
        assert reread.trg(trace, window_blocks=64) == oracle
        assert (reread.hits, reread.misses) == (1, 0)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: {**raw, "weights": raw["weights"].reshape(-1, 1)},
            lambda raw: _with_edge(raw, 1, 99, 2),
            lambda raw: _reweighted(raw, 0),
            lambda raw: _reweighted(raw, -3),
            lambda raw: _with_edge(raw, 2, 1, 4),
            lambda raw: _with_edge(raw, 3, 3, 4),
            lambda raw: _with_edge(raw, *raw["edges"][0], 4),
            lambda raw: {**raw, "nodes": np.append(raw["nodes"], raw["nodes"][:1])},
            lambda raw: {**raw, "edges": raw["edges"][::-1], "weights": raw["weights"][::-1]},
        ],
        ids=[
            "weights-list",
            "missing-endpoint",
            "zero-weight",
            "negative-weight",
            "unordered-key",
            "self-edge",
            "repeated-key",
            "repeated-node",
            "unsorted-edges",
        ],
    )
    def test_malformed_entry_recomputed(self, tmp_path, trace, corrupt):
        """A corrupt TRG entry degrades to a miss and a fresh build; it
        never crashes the lookup or reaches the reduction."""
        SimMemo(tmp_path).trg(trace, window_blocks=64)
        path = tmp_path / f"{trg_key(trace, window_blocks=64)}.npz"
        write_entry(path, corrupt(read_entry(path)))
        reread = SimMemo(tmp_path)
        got = reread.trg(trace, window_blocks=64)
        oracle = build_trg(trace, window_blocks=64)
        assert got == oracle
        assert (reread.hits, reread.misses) == (0, 1)


class TestHasAnalysis:
    """Entries injected from outside the memoizing methods."""

    def test_put_analysis_feeds_later_consumption(self, trace):
        """An artifact computed elsewhere (a worker) is injected and later
        consumed as a hit."""
        memo = SimMemo()
        key = affinity_key(trace, w_max=12)
        memo.put_analysis(key, affinity_coverage(trace, w_max=12))
        served = memo.affinity_coverage(trace, w_max=12)
        assert served == affinity_coverage(trace, w_max=12)
        assert (memo.hits, memo.misses) == (1, 0)
