"""The one set loop, the labelled sweep and the closed-form issue order
against the round-robin loops and generator they replaced
(``tests/cache/shared_oracle.py``, ``tests/cache/two_level_oracle.py``).

Every per-thread counter of :func:`repro.cache.shared.simulate_shared`
must equal the oracle's for 0-8 threads (empty streams and lines shared
across threads included), any quantum, prefetch on (the set loop) and
off (the labelled sweep), and geometries from one set up to 512 sets,
past the one-byte set-partition key, with 1-8 ways.  Streams built from
runs of adjacent lines make the prefetcher's cases happen: a prefetched
line consumed by its issuer or by a peer, and a tag evicted unread.
Every level of :func:`repro.cache.hierarchy.simulate_hierarchy_shared`
must equal the oracle's, per thread, for 0-4 threads (empty streams
included), any quantum and 1-64 sets x 1-8 ways per level.  A single
thread is also a solo run: :func:`simulate` and :func:`simulate_hierarchy`
must agree.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, HierarchyConfig, simulate, simulate_shared
from repro.cache.hierarchy import simulate_hierarchy, simulate_hierarchy_shared
from repro.cache.shared import issue_order

from .shared_oracle import issue_order as oracle_issue_order
from .shared_oracle import simulate_shared as oracle_shared
from .two_level_oracle import simulate_hierarchy as oracle_hierarchy
from .two_level_oracle import simulate_hierarchy_shared as oracle_hierarchy_shared

#: every thread draws from one line pool, so threads share lines: a few
#: hot lines (reuse in any geometry) and a wide range (every set of 512).
shared_lines = st.one_of(st.integers(0, 40), st.integers(0, 1100))
wide_threads = st.lists(
    st.lists(shared_lines, min_size=0, max_size=60), min_size=0, max_size=8
)
wide_geometries = st.builds(
    lambda n_sets, assoc: CacheConfig(n_sets * assoc * 64, assoc, 64),
    n_sets=st.sampled_from([1, 2, 4, 64, 256, 512]),
    assoc=st.integers(1, 8),
)
#: runs of adjacent lines L, L+1, ..., so a miss's next-line prefetch is
#: what the stream (or a peer sharing the run) asks for next.
adjacent_runs = st.lists(
    st.tuples(st.one_of(st.integers(0, 40), st.integers(0, 1100)), st.integers(1, 12)),
    max_size=10,
).map(lambda runs: [line for start, n in runs for line in range(start, start + n)])


def _counters(stats):
    return [dataclasses.astuple(s) for s in stats]


@settings(max_examples=300, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 40), min_size=0, max_size=8),
    quantum=st.integers(1, 16),
)
def test_issue_order_matches_oracle_generator(lengths, quantum):
    got = issue_order(lengths, quantum)
    assert got.dtype == np.int64 and got.shape[1:] == (3,)
    assert got.tolist() == [list(row) for row in oracle_issue_order(lengths, quantum)]


@settings(max_examples=300, deadline=None)
@given(
    streams=wide_threads,
    quantum=st.integers(1, 16),
    prefetch=st.booleans(),
    cfg=wide_geometries,
)
def test_simulate_shared_matches_oracle(streams, quantum, prefetch, cfg):
    arrays = [np.array(s, dtype=np.int64) for s in streams]
    got = simulate_shared(arrays, cfg, quantum=quantum, prefetch=prefetch)
    want = oracle_shared(arrays, cfg, quantum=quantum, prefetch=prefetch)
    assert len(got) == len(want) == len(arrays)
    # accesses, misses, prefetches, prefetch_hits, _self, _cross
    assert _counters(got) == _counters(want)
    if len(arrays) == 1:
        solo = simulate(arrays[0], cfg, prefetch=prefetch)
        assert dataclasses.astuple(solo) == dataclasses.astuple(want[0])[:4]


@settings(max_examples=300, deadline=None)
@given(
    streams=st.lists(adjacent_runs, min_size=1, max_size=4),
    quantum=st.integers(1, 16),
    cfg=wide_geometries,
)
def test_adjacent_runs_match_oracle(streams, quantum, cfg):
    arrays = [np.array(s, dtype=np.int64) for s in streams]
    for prefetch in (False, True):
        got = simulate_shared(arrays, cfg, quantum=quantum, prefetch=prefetch)
        want = oracle_shared(arrays, cfg, quantum=quantum, prefetch=prefetch)
        assert _counters(got) == _counters(want)


#: 2 sets, 1 way: line L's prefetch of L+1 lands in the other set.
TWO_SETS_DIRECT = CacheConfig(2 * 64, 1, 64)


def test_peer_consumes_a_prefetch():
    """Thread 0 misses line 0 and prefetches line 1, which thread 1 then
    demands: a cross hit for thread 1, no hit for the issuer."""
    arrays = [np.array([0, 2, 4]), np.array([1, 3, 5])]
    got = simulate_shared(arrays, TWO_SETS_DIRECT, quantum=1, prefetch=True)
    assert _counters(got) == _counters(
        oracle_shared(arrays, TWO_SETS_DIRECT, quantum=1, prefetch=True)
    )
    assert got[1].prefetch_hits_cross == 3 and got[1].misses == 0
    assert got[0].prefetch_hits == 0 and got[0].prefetches == 3


@pytest.mark.parametrize(
    "arrays, cfg, thread0",
    [
        # Solo, 2 sets x 2 ways: line 0 prefetches line 1, lines 3 and 5
        # push it out unread, the demand for line 1 misses, and its later
        # hit finds an untagged line.
        ([np.array([0, 3, 5, 1, 5, 1])], CacheConfig(4 * 64, 2, 64), (6, 4, 4, 0, 0, 0)),
        # Co-run, 2 sets x 1 way: thread 0's tag on line 1 is evicted
        # unread, thread 1's miss on line 0 tags line 1 again, and thread
        # 0's hit on it is a cross hit, credited to the latest issuer.
        (
            [np.array([0, 3, 1, 6, 1]), np.array([8, 8, 8, 0, 8])],
            TWO_SETS_DIRECT,
            (5, 4, 4, 1, 0, 1),
        ),
    ],
    ids=["solo", "corun"],
)
def test_tag_evicted_unread(arrays, cfg, thread0):
    """A prefetch tag evicted before use leaves no prefetch hit behind."""
    got = simulate_shared(arrays, cfg, quantum=1, prefetch=True)
    assert _counters(got) == _counters(oracle_shared(arrays, cfg, quantum=1, prefetch=True))
    assert _counters(got)[0] == thread0


#: 1-64 sets x 1-8 ways, drawn independently for each hierarchy level.
levels = st.builds(
    lambda n_sets, assoc: CacheConfig(n_sets * assoc * 64, assoc, 64),
    n_sets=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    assoc=st.integers(1, 8),
)
#: (line, is_data) accesses: a few hot lines and a range past 64 sets.
merged_threads = st.lists(
    st.lists(
        st.tuples(st.one_of(st.integers(0, 24), st.integers(0, 300)), st.booleans()),
        max_size=80,
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(
    streams=merged_threads,
    quantum=st.integers(1, 16),
    l1i=levels,
    l1d=levels,
    l2=levels,
)
def test_hierarchy_shared_matches_oracle(streams, quantum, l1i, l1d, l2):
    cfg = HierarchyConfig(l1i=l1i, l1d=l1d, l2=l2)
    pairs = [
        (np.array([x for x, _ in s], dtype=np.int64), np.array([d for _, d in s], dtype=bool))
        for s in streams
    ]
    got = simulate_hierarchy_shared(pairs, cfg, quantum=quantum)
    assert got == oracle_hierarchy_shared(pairs, cfg, quantum=quantum)
    if len(pairs) == 1:
        assert got[0] == simulate_hierarchy(*pairs[0], cfg)
        assert got[0] == oracle_hierarchy(*pairs[0], cfg)
