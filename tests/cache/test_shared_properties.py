"""The one set loop and the one issue order against the round-robin
loops they replaced (``tests/cache/shared_oracle.py``).

Every per-thread counter of :func:`repro.cache.shared.simulate_shared`
and every level of :func:`repro.cache.hierarchy.simulate_hierarchy_shared`
must equal the oracle's, for 0-4 threads (empty streams included), any
quantum, prefetch on and off, and degenerate geometries (one set, one
way).  A single thread is also a solo run: :func:`simulate` must agree.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, HierarchyConfig, simulate, simulate_shared
from repro.cache.hierarchy import simulate_hierarchy_shared

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


def _counters(stats):
    return [dataclasses.astuple(s) for s in stats]


@settings(max_examples=300, deadline=None)
@given(
    streams=threads,
    quantum=st.integers(1, 16),
    prefetch=st.booleans(),
    cfg=geometries,
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
