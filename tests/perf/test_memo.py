"""The content-addressed simulation memo cache (repro.perf.memo).

The contract under test: a memo hit returns CacheStats identical to a
fresh simulation; keys are sensitive to every simulation input; disk
entries survive process turnover and tolerate corruption.
"""

import numpy as np
import pytest

from repro.cache import CacheConfig, PAPER_L1I, simulate
from repro.perf import SimMemo, memo_key

from .memo_entries import lab_curve, read_entry, schema_of, write_entry


@pytest.fixture
def lines():
    rng = np.random.default_rng(42)
    return rng.integers(0, 700, 5000).astype(np.int32)


class TestMemoKey:
    def test_deterministic(self, lines):
        assert memo_key(lines, PAPER_L1I) == memo_key(lines.copy(), PAPER_L1I)

    def test_dtype_canonicalized(self, lines):
        """The same logical stream keys identically regardless of dtype."""
        assert memo_key(lines, PAPER_L1I) == memo_key(
            lines.astype(np.int64), PAPER_L1I
        )

    def test_sensitive_to_stream(self, lines):
        other = lines.copy()
        other[17] += 1
        assert memo_key(lines, PAPER_L1I) != memo_key(other, PAPER_L1I)

    def test_sensitive_to_geometry_and_prefetch(self, lines):
        small = CacheConfig(size_bytes=16 * 1024, assoc=4, line_bytes=64)
        keys = {
            memo_key(lines, PAPER_L1I),
            memo_key(lines, small),
            memo_key(lines, PAPER_L1I, prefetch=True),
        }
        assert len(keys) == 3


class TestSimMemo:
    def test_hit_returns_identical_stats(self, lines):
        memo = SimMemo()
        fresh = simulate(lines, PAPER_L1I, prefetch=True)
        first = memo.simulate(lines, PAPER_L1I, prefetch=True)
        hit = memo.simulate(lines, PAPER_L1I, prefetch=True)
        assert first == fresh
        assert hit == fresh
        assert (memo.hits, memo.misses) == (1, 1)
        assert memo.hit_rate == 0.5

    def test_hit_result_is_not_aliased(self, lines):
        memo = SimMemo()
        a = memo.simulate(lines, PAPER_L1I)
        a.misses = -1  # caller mutates its copy
        assert memo.simulate(lines, PAPER_L1I).misses != -1

    def test_disk_persistence_across_instances(self, tmp_path, lines):
        fresh = simulate(lines, PAPER_L1I)
        SimMemo(tmp_path).simulate(lines, PAPER_L1I)
        reread = SimMemo(tmp_path)
        assert reread.simulate(lines, PAPER_L1I) == fresh
        assert (reread.hits, reread.misses) == (1, 0)

    def test_corrupt_entry_degrades_to_recomputation(self, tmp_path, lines):
        memo = SimMemo(tmp_path)
        key = memo_key(lines, PAPER_L1I)
        fresh = memo.simulate(lines, PAPER_L1I)
        (tmp_path / f"{key}.npz").write_bytes(b"{ truncated")
        reread = SimMemo(tmp_path)
        assert reread.simulate(lines, PAPER_L1I) == fresh
        assert reread.misses == 1  # corrupt file never served

    def test_stale_schema_entry_dropped(self, tmp_path, lines):
        memo = SimMemo(tmp_path)
        key = memo_key(lines, PAPER_L1I)
        memo.simulate(lines, PAPER_L1I)
        path = tmp_path / f"{key}.npz"
        raw = read_entry(path)
        raw["schema"] = np.array("repro.perf.memo.v0")
        write_entry(path, raw)
        reread = SimMemo(tmp_path)
        reread.simulate(lines, PAPER_L1I)
        assert reread.misses == 1
        # the stale file was replaced with a current-schema entry.
        assert schema_of(path) != "repro.perf.memo.v0"

    def test_concurrent_writers_dedup_via_key_lock(self, tmp_path, lines, monkeypatch):
        """Two writers racing on the same key must run ONE simulation:
        the loser blocks on the per-key flock, then replays the winner's
        published entry instead of recomputing (the concurrent-put fix)."""
        import threading

        import repro.perf.memo as memo_mod

        real_simulate = memo_mod.simulate
        calls = []
        started = threading.Barrier(2)

        def slow_simulate(*args, **kwargs):
            calls.append(1)
            import time

            time.sleep(0.3)  # hold the lock long enough to force contention
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(memo_mod, "simulate", slow_simulate)
        memos = [SimMemo(tmp_path), SimMemo(tmp_path)]
        results = [None, None]

        def worker(i):
            started.wait()
            results[i] = memos[i].simulate(lines, PAPER_L1I)

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert results[0] == results[1] == real_simulate(lines, PAPER_L1I)
        assert len(calls) == 1  # the whole point: one compute, not two
        assert sum(m.lock_waits for m in memos) == 1
        assert sum(m.hits for m in memos) == 1  # the loser replayed

    def test_in_memory_only_mode(self, lines):
        memo = SimMemo()
        memo.simulate(lines, PAPER_L1I)
        memo.simulate(lines, PAPER_L1I)
        assert memo.counters() == {
            "hits": 1,
            "misses": 1,
            "disk_failures": 0,
            "degraded": 0,
            "lock_waits": 0,
            "breaker_trips": 0,
            "breaker_recoveries": 0,
            "hit_rate": 0.5,
        }


class TestHistogramMemo:
    """Kernel histograms: coarser keys (stream + n_sets only), same
    degrade-to-recompute storage discipline."""

    def test_key_ignores_assoc_and_line_bytes(self, lines):
        from repro.perf import histogram_key

        key = histogram_key(lines, PAPER_L1I.n_sets)
        assert key == histogram_key(lines.astype(np.int64), PAPER_L1I.n_sets)
        assert key != histogram_key(lines, 64)
        other = lines.copy()
        other[3] += 1
        assert key != histogram_key(other, PAPER_L1I.n_sets)
        # Distinct from the CacheStats key space for the same stream.
        assert key != memo_key(lines, PAPER_L1I)

    def test_histogram_hit_and_simulate_fast(self, lines):
        from repro.cache import stack_distance_histogram

        memo = SimMemo()
        fresh = stack_distance_histogram(lines, PAPER_L1I.n_sets)
        assert memo.histogram(lines, PAPER_L1I.n_sets) == fresh
        assert memo.histogram(lines, PAPER_L1I.n_sets) == fresh
        assert (memo.hits, memo.misses) == (1, 1)
        # One histogram entry answers every associativity of the family.
        for assoc in (1, 2, 4, 8):
            cfg = CacheConfig(
                size_bytes=PAPER_L1I.n_sets * assoc * 64,
                assoc=assoc,
                line_bytes=64,
            )
            stats = memo.histogram(lines, cfg.n_sets).stats(assoc)
            oracle = stack_distance_histogram(lines, cfg.n_sets).stats(assoc)
            assert stats == oracle == simulate(lines, cfg)
        assert memo.misses == 1  # no further kernel passes were needed

    def test_histogram_disk_persistence(self, tmp_path, lines):
        from repro.cache import stack_distance_histogram

        fresh = stack_distance_histogram(lines, 128)
        SimMemo(tmp_path).histogram(lines, 128)
        reread = SimMemo(tmp_path)
        assert reread.histogram(lines, 128) == fresh
        assert (reread.hits, reread.misses) == (1, 0)

    def test_corrupt_histogram_entry_recomputed(self, tmp_path, lines):
        from repro.perf import histogram_key

        memo = SimMemo(tmp_path)
        key = histogram_key(lines, 128)
        fresh = memo.histogram(lines, 128)
        (tmp_path / f"{key}.npz").write_bytes(b"{ nope")
        reread = SimMemo(tmp_path)
        assert reread.histogram(lines, 128) == fresh
        assert reread.misses == 1

    def test_stale_kernel_schema_dropped(self, tmp_path, lines):
        from repro.perf import histogram_key

        memo = SimMemo(tmp_path)
        key = histogram_key(lines, 128)
        memo.histogram(lines, 128)
        path = tmp_path / f"{key}.npz"
        raw = read_entry(path)
        raw["schema"] = np.array("repro.perf.memo.kernel.v0")
        write_entry(path, raw)
        reread = SimMemo(tmp_path)
        reread.histogram(lines, 128)
        assert reread.misses == 1
        assert schema_of(path) != "repro.perf.memo.kernel.v0"


class TestCurveMemo:
    """Footprint-curve tier: coarsest keys (stream only), bit-identical
    replay through the binary entry format."""

    def test_key_depends_on_stream_only(self, lines):
        from repro.perf.memo import curve_key, trace_digest

        key = curve_key(lines)
        assert key == curve_key(lines.astype(np.int64))
        # A digest string keys identically to the stream it digests.
        assert key == curve_key(trace_digest(lines))
        other = lines.copy()
        other[5] += 1
        assert key != curve_key(other)
        assert key != memo_key(lines, PAPER_L1I)

    def test_memoized_curve_is_bit_identical(self, lines):
        from repro.locality.footprint import footprint_curve

        memo = SimMemo()
        fresh = footprint_curve(lines)
        first = lab_curve(memo, lines)
        hit = lab_curve(memo, lines)
        assert (memo.hits, memo.misses) == (1, 1)
        for got in (first, hit):
            assert got.n == fresh.n and got.m == fresh.m
            assert (got.fp == fresh.fp).all()

    def test_curve_disk_persistence(self, tmp_path, lines):
        from repro.locality.footprint import footprint_curve

        fresh = footprint_curve(lines)
        lab_curve(SimMemo(tmp_path), lines)
        reread = SimMemo(tmp_path)
        got = lab_curve(reread, lines)
        assert (reread.hits, reread.misses) == (1, 0)
        assert (got.fp == fresh.fp).all()  # the .npz round trip is exact

    def test_corrupt_curve_entry_recomputed(self, tmp_path, lines):
        from repro.perf.memo import curve_key

        memo = SimMemo(tmp_path)
        lab_curve(memo, lines)
        (tmp_path / f"{curve_key(lines)}.npz").write_bytes(b"{ bad")
        reread = SimMemo(tmp_path)
        lab_curve(reread, lines)
        assert reread.misses == 1

    def test_scrub_keeps_current_curve_schema(self, tmp_path, lines):
        from repro.perf.memo import CURVE_SCHEMA, curve_key

        memo = SimMemo(tmp_path)
        key = curve_key(lines)
        lab_curve(memo, lines)
        # Plant a stale-schema sibling; scrub must drop it, keep ours.
        stale = tmp_path / ("0" * 64 + ".npz")
        write_entry(stale, {"schema": np.array("repro.perf.memo.curve.v0")})
        kept_n, dropped = memo.scrub()
        assert kept_n >= 1 and dropped >= 1
        assert not stale.exists()
        assert schema_of(tmp_path / f"{key}.npz") == CURVE_SCHEMA
