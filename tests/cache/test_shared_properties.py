"""The one set loop, the labelled sweep and the closed-form issue order
against the round-robin loops and generator they replaced
(``tests/cache/shared_oracle.py``).

Every per-thread counter of :func:`repro.cache.shared.simulate_shared`
must equal the oracle's for 0-8 threads (empty streams and lines shared
across threads included), any quantum, prefetch on (the set loop) and
off (the labelled sweep), and geometries from one set and one way up to
512 sets, past the one-byte set-partition key.  Every level of
:func:`repro.cache.hierarchy.simulate_hierarchy_shared` must equal the
oracle's for 0-4 threads.  A single thread is also a solo run:
:func:`simulate` must agree.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, HierarchyConfig, simulate, simulate_shared
from repro.cache.hierarchy import simulate_hierarchy_shared
from repro.cache.shared import issue_order

from .shared_oracle import issue_order as oracle_issue_order
from .shared_oracle import simulate_hierarchy_shared as oracle_hierarchy_shared
from .shared_oracle import simulate_shared as oracle_shared

geometries = st.builds(
    lambda n_sets, assoc: CacheConfig(n_sets * assoc * 64, assoc, 64),
    n_sets=st.sampled_from([1, 2, 4]),
    assoc=st.sampled_from([1, 2, 4]),
)
threads = st.lists(
    st.lists(st.integers(0, 40), min_size=0, max_size=60), min_size=0, max_size=4
)
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


@settings(max_examples=200, deadline=None)
@given(
    streams=threads,
    flags=st.lists(st.booleans(), min_size=60, max_size=60),
    quantum=st.integers(1, 16),
    l1=geometries,
)
def test_hierarchy_shared_matches_oracle(streams, flags, quantum, l1):
    cfg = HierarchyConfig(l1i=l1, l1d=l1, l2=CacheConfig(2 * l1.size_bytes, 2 * l1.assoc, 64))
    pairs = [
        (np.array(s, dtype=np.int64), np.array(flags[: len(s)], dtype=bool)) for s in streams
    ]
    got = simulate_hierarchy_shared(pairs, cfg, quantum=quantum)
    want = oracle_hierarchy_shared(pairs, cfg, quantum=quantum)
    assert got == want
