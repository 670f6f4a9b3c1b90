"""Unit and property tests for the solo cache simulator (repro.cache.setassoc)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    CacheConfig,
    PAPER_L1I,
    simulate,
    simulate_shared,
)
from repro.cache.fastsim import fenwick_histogram
from repro.cache.setassoc import run_lru


def test_direct_mapped_conflicts():
    cfg = CacheConfig(size_bytes=128, assoc=1, line_bytes=64)  # 2 sets
    # lines 0 and 2 both map to set 0 and evict each other; line 1 -> set 1.
    st_ = simulate(np.array([0, 2, 0, 2, 1, 1]), cfg)
    assert st_.misses == 5
    assert st_.accesses == 6
    assert st_.hits == 1


def test_two_way_absorbs_the_same_pattern():
    cfg = CacheConfig(size_bytes=256, assoc=2, line_bytes=64)  # 2 sets, 2-way
    st_ = simulate(np.array([0, 2, 0, 2, 1, 1]), cfg)
    assert st_.misses == 3  # only cold misses


def test_lru_replacement_within_set():
    cfg = CacheConfig(size_bytes=128, assoc=2, line_bytes=64)  # 1 set, 2-way
    # access 0,1 (cold), touch 0 (now MRU), insert 2 -> evicts 1 not 0.
    st_ = simulate(np.array([0, 1, 0, 2, 0, 1]), cfg)
    # misses: 0,1,2 cold + final 1 (evicted) = 4
    assert st_.misses == 4


def test_fully_associative_equals_reuse_distance_model():
    rng = np.random.default_rng(0)
    lines = rng.integers(0, 24, 800)
    cfg = CacheConfig(size_bytes=8 * 64, assoc=8, line_bytes=64)  # 1 set, 8-way
    st_ = simulate(lines, cfg)
    # Fully associative: a miss is a cold access or a reuse (stack)
    # distance past the 8 ways, read off the scalar-tier oracle.
    hist = fenwick_histogram(lines, 1)
    expected = hist.cold + int(hist.hist[8:].sum())
    assert st_.misses == expected


def test_prefetch_helps_sequential_stream():
    lines = np.tile(np.arange(600), 3)  # sequential sweeps, > capacity
    plain = simulate(lines, PAPER_L1I)
    pref = simulate(lines, PAPER_L1I, prefetch=True)
    assert pref.misses < plain.misses
    assert pref.prefetches > 0
    assert pref.prefetch_hits > 0


@pytest.mark.parametrize("prefetch", [False, True])
def test_negative_lines_are_rejected(prefetch):
    """A pending prefetch tag is held as ``~line``, so lines must be >= 0."""
    with pytest.raises(ValueError, match=">= 0"):
        simulate(np.array([3, -1, 4]), PAPER_L1I, prefetch=prefetch)
    with pytest.raises(ValueError, match=">= 0"):
        run_lru(np.array([2, -5]), PAPER_L1I, prefetch, np.array([0, 1]), 2)


@pytest.mark.parametrize("prefetch", [False, True])
def test_empty_stream(prefetch):
    empty = np.zeros(0, dtype=np.int64)
    st_ = simulate(empty, PAPER_L1I, prefetch=prefetch)
    assert (st_.accesses, st_.misses, st_.prefetches, st_.prefetch_hits) == (0, 0, 0, 0)
    stats = run_lru(empty, PAPER_L1I, prefetch, empty, 2)
    assert [(s.accesses, s.misses) for s in stats] == [(0, 0), (0, 0)]


class TestDegeneratePrefetchGeometry:
    """PR 3 bugfix pin: a tagged prefetch must never evict its own trigger.

    With n_sets == 1 and assoc == 1 the prefetch target L+1 maps to the
    demand line L's own (only) set and L occupies the only (LRU) way, so
    the old code evicted L immediately after fetching it — every re-access
    missed.  The prefetch is suppressed in exactly that geometry.
    """

    ONE_SET_DIRECT = CacheConfig(size_bytes=64, assoc=1, line_bytes=64)

    def test_trigger_line_survives_its_own_prefetch(self):
        st_ = simulate(np.array([0, 0]), self.ONE_SET_DIRECT, prefetch=True)
        assert st_.misses == 1  # second access must hit
        assert st_.prefetches == 0  # the self-evicting prefetch is dropped

    def test_two_way_single_set_still_prefetches(self):
        cfg = CacheConfig(size_bytes=128, assoc=2, line_bytes=64)  # 1 set, 2-way
        st_ = simulate(np.array([0, 0]), cfg, prefetch=True)
        assert st_.misses == 1
        assert st_.prefetches == 1  # line 1 fits in the other way

    def test_multi_set_geometry_unchanged(self):
        """The guard cannot fire when the target maps to a different set:
        direct-mapped multi-set prefetching still works as before."""
        lines = np.tile(np.arange(40), 3)
        cfg = CacheConfig(size_bytes=16 * 64, assoc=1, line_bytes=64)  # 16 sets
        pref = simulate(lines, cfg, prefetch=True)
        plain = simulate(lines, cfg)
        assert pref.prefetches > 0
        assert pref.prefetch_hits > 0
        assert pref.misses < plain.misses

    def test_repeats_are_not_skipped_with_one_set(self):
        """With one set the next-line prefetch lands in the demand line's
        own set, so a repeat of the line just issued moves it back to MRU
        and changes what the next miss evicts: [1, 1, 0] in a 1-set,
        2-way cache issues one prefetch, two if the repeat were dropped."""
        cfg = CacheConfig(size_bytes=128, assoc=2, line_bytes=64)
        st_ = simulate(np.array([1, 1, 0]), cfg, prefetch=True)
        assert (st_.accesses, st_.misses, st_.prefetches) == (3, 2, 1)
        [shared] = simulate_shared([np.array([1, 1, 0])], cfg, prefetch=True)
        assert (shared.accesses, shared.misses, shared.prefetches) == (3, 2, 1)

    def test_shared_simulator_has_the_same_guard(self):
        [st_] = simulate_shared(
            [np.array([0, 0])], self.ONE_SET_DIRECT, prefetch=True
        )
        assert st_.misses == 1
        assert st_.prefetches == 0


@settings(max_examples=40, deadline=None)
@given(
    lines=st.lists(st.integers(0, 40), min_size=0, max_size=400),
    assoc=st.sampled_from([1, 2, 4]),
)
def test_miss_count_matches_per_set_lru_reference(lines, assoc):
    cfg = CacheConfig(size_bytes=4 * assoc * 64, assoc=assoc, line_bytes=64)
    arr = np.array(lines, dtype=np.int64)
    st_ = simulate(arr, cfg)
    # reference: independent LRU list per set.
    sets = {}
    misses = 0
    for line in lines:
        s = sets.setdefault(line % cfg.n_sets, [])
        if line in s:
            s.remove(line)
        else:
            misses += 1
            if len(s) >= assoc:
                s.pop()
        s.insert(0, line)
    assert st_.misses == misses
    assert st_.accesses == len(lines)


def test_cache_inclusion_monotonicity():
    """More ways never increases misses (LRU inclusion property per set
    holds when sets are identical)."""
    rng = np.random.default_rng(7)
    lines = rng.integers(0, 64, 2000)
    m = []
    for assoc in (1, 2, 4, 8):
        cfg = CacheConfig(size_bytes=8 * assoc * 64, assoc=assoc, line_bytes=64)
        m.append(simulate(lines, cfg).misses)
    assert all(a >= b for a, b in zip(m, m[1:]))
