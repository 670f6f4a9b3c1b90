"""The one set loop, the labelled sweep and the closed-form issue order
against the round-robin loops and generator they replaced
(``tests/cache/shared_oracle.py``, ``tests/cache/two_level_oracle.py``).

Every per-thread counter of :func:`repro.cache.shared.simulate_shared`
must equal the oracle's for 0-8 threads (empty streams and lines shared
across threads included), any quantum, prefetch on (the set loop) and
off (the labelled sweep), and geometries from one set and one way up to
512 sets, past the one-byte set-partition key.  Every level of
:func:`repro.cache.hierarchy.simulate_hierarchy_shared` must equal the
oracle's, per thread, for 0-4 threads (empty streams included), any
quantum and 1-64 sets x 1-8 ways per level.  A single thread is also a
solo run: :func:`simulate` and :func:`simulate_hierarchy` must agree.
"""

import dataclasses

import numpy as np
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
    assoc=st.sampled_from([1, 2, 4]),
)


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
