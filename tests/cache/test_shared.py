"""Unit tests for the shared-cache co-run simulator (repro.cache.shared)."""

import numpy as np
import pytest

from repro.cache import (
    CacheConfig,
    PAPER_L1I,
    SharedCacheStats,
    simulate,
    simulate_shared,
)
from repro.cache.shared import interleave, issue_order


def issued_stream(streams, quantum=8):
    """The streams concatenated in issue order (what the shared cache sees)."""
    return interleave(streams, quantum)[0]


def test_single_thread_equals_solo():
    rng = np.random.default_rng(1)
    lines = rng.integers(0, 600, 5000)
    solo = simulate(lines, PAPER_L1I)
    shared = simulate_shared([lines], PAPER_L1I)
    assert shared[0].misses == solo.misses
    assert shared[0].accesses == solo.accesses


def test_empty_streams():
    assert simulate_shared([], PAPER_L1I) == []
    stats = simulate_shared([np.empty(0, dtype=np.int64)], PAPER_L1I)
    assert stats[0].accesses == 0


def test_quantum_validation():
    with pytest.raises(ValueError):
        simulate_shared([np.array([1])], PAPER_L1I, quantum=0)


def test_corun_increases_misses_under_contention():
    rng = np.random.default_rng(2)
    # two disjoint working sets, each ~0.8x capacity: fits alone, thrashes
    # together.
    a = np.tile(np.arange(0, 400), 20)
    b = np.tile(np.arange(1000, 1400), 20)
    solo_a = simulate(a, PAPER_L1I).misses
    shared = simulate_shared([a, b], PAPER_L1I)
    # equal lengths: one pass each, no wrap.
    assert shared[0].accesses == a.shape[0]
    assert shared[0].misses > solo_a


def test_wrap_restarts_shorter_stream():
    a = np.arange(0, 100)           # short
    b = np.arange(1000, 1000 + 4000)  # long
    shared = simulate_shared([a, b], PAPER_L1I)
    # thread 0 must have issued more than one pass.
    assert shared[0].accesses > a.shape[0]
    # thread 1 completes exactly one pass.
    assert shared[1].accesses == b.shape[0]


def test_issue_order_round_robin_with_wrap():
    """Quanta alternate in thread order, empty streams never issue, a
    finished thread restarts at 0, and the round in which the last
    thread completes its first pass is the last."""
    assert issue_order([5, 0, 2], 2).tolist() == [
        [0, 0, 2], [2, 0, 2],
        [0, 2, 4], [2, 0, 2],
        [0, 4, 5], [2, 0, 2],
    ]
    assert issue_order([], 4).shape == (0, 3)
    assert issue_order([0, 0], 4).shape == (0, 3)


def test_interleave_labels_each_access_with_its_thread():
    lines, threads = interleave([np.arange(5), np.arange(0), np.arange(100, 102)], 2)
    assert lines.tolist() == [0, 1, 100, 101, 2, 3, 100, 101, 4, 100, 101]
    assert threads.tolist() == [0, 0, 2, 2, 0, 0, 2, 2, 0, 2, 2]
    lines, threads = interleave([], 3)
    assert lines.shape == threads.shape == (0,)
    with pytest.raises(ValueError):
        interleave([np.arange(3)], 0)


def test_wrapped_totals_match_issue_order_stream():
    a = np.arange(0, 64)
    b = np.arange(1000, 1000 + 2048)
    shared = simulate_shared([a, b], PAPER_L1I)
    assert shared[0].accesses > a.shape[0]
    assert shared[1].accesses == b.shape[0]
    solo = simulate(issued_stream([a, b]), PAPER_L1I)
    assert sum(s.accesses for s in shared) == solo.accesses
    assert sum(s.misses for s in shared) == solo.misses


def test_total_conservation_against_merged_reference():
    """With quantum q, the shared sim must equal a solo sim of the
    interleaved stream the issue order produces, wrapped passes included."""
    rng = np.random.default_rng(3)
    a = rng.integers(0, 300, 1000)
    b = rng.integers(500, 800, 700)
    q = 8
    shared = simulate_shared([a, b], PAPER_L1I, quantum=q)
    solo = simulate(issued_stream([a, b], q), PAPER_L1I)
    assert shared[0].misses + shared[1].misses == solo.misses
    assert shared[0].accesses + shared[1].accesses == solo.accesses


def test_deterministic():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 700, 3000)
    b = rng.integers(0, 700, 2500)
    r1 = simulate_shared([a, b], PAPER_L1I)
    r2 = simulate_shared([a, b], PAPER_L1I)
    assert r1[0].misses == r2[0].misses
    assert r1[1].misses == r2[1].misses


def test_shared_prefetch_counts():
    a = np.tile(np.arange(0, 512), 4)
    b = np.tile(np.arange(1000, 1512), 4)
    stats = simulate_shared([a, b], PAPER_L1I, prefetch=True)
    assert stats[0].prefetches > 0 or stats[1].prefetches > 0


def test_cross_thread_prefetch_attributed_to_issuer():
    """Only thread 0 misses (even lines), so only thread 0 issues
    prefetches — of the odd lines thread 1 then consumes.  The
    accounting must attribute those hits as *cross* help on thread 1,
    not conflate them with self-help; pre-fix, the per-line issuer was
    not tracked at all.
    """
    cfg = CacheConfig(size_bytes=64 * 4 * 64, assoc=4, line_bytes=64)
    t0 = np.arange(0, 400, 2)  # even lines: all cold misses
    t1 = np.arange(1, 400, 2)  # odd lines: exactly the prefetched ones
    stats = simulate_shared([t0, t1], cfg, prefetch=True)

    # Thread 1 never missed, so it never issued a single prefetch...
    assert stats[1].misses == 0
    assert stats[1].prefetches == 0
    # ...yet it consumed prefetched lines — all of them peer-issued.
    assert stats[1].prefetch_hits > 0
    assert stats[1].prefetch_hits_cross == stats[1].prefetch_hits
    assert stats[1].prefetch_hits_self == 0
    # Thread 0's own stream never touches a prefetched (odd) line.
    assert stats[0].prefetch_hits == 0


def test_prefetch_hit_split_invariant():
    """prefetch_hits == self + cross on every thread, for arbitrary
    contending streams."""
    rng = np.random.default_rng(12)
    a = rng.integers(0, 900, 4000)
    b = rng.integers(400, 1300, 4000)
    for st in simulate_shared([a, b], PAPER_L1I, prefetch=True):
        assert isinstance(st, SharedCacheStats)
        assert st.prefetch_hits == st.prefetch_hits_self + st.prefetch_hits_cross


def test_self_prefetch_still_counted_as_self():
    """A solo thread consuming its own prefetches reports only self-help."""
    lines = np.tile(np.arange(0, 256), 4)
    st = simulate_shared([lines], PAPER_L1I, prefetch=True)[0]
    assert st.prefetch_hits > 0
    assert st.prefetch_hits_self == st.prefetch_hits
    assert st.prefetch_hits_cross == 0
