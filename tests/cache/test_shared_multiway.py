"""N-thread shared-cache tests (the SMT-width extension's substrate)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, PAPER_L1I, simulate, simulate_shared
from repro.cache.shared import issue_order

from .test_shared import issued_stream


def disjoint_streams(n_threads, per_thread, working_set, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(t * 10_000, t * 10_000 + working_set, per_thread)
        for t in range(n_threads)
    ]


def test_four_threads_all_measured():
    streams = disjoint_streams(4, 2000, 200)
    stats = simulate_shared(streams, PAPER_L1I)
    assert len(stats) == 4
    for st_, stream in zip(stats, streams):
        assert st_.accesses >= stream.shape[0]


def test_contention_grows_with_thread_count():
    """Each thread's working set is ~0.6x capacity: one fits, four thrash."""
    per_thread_ws = 300  # lines, vs 512 capacity
    ratios = []
    for width in (1, 2, 4):
        streams = disjoint_streams(width, 4000, per_thread_ws)
        if width == 1:
            ratios.append(simulate(streams[0], PAPER_L1I).miss_ratio)
        else:
            stats = simulate_shared(streams, PAPER_L1I)
            ratios.append(stats[0].misses / stats[0].accesses)
    assert ratios[0] <= ratios[1] <= ratios[2]
    assert ratios[2] > ratios[0]


def test_four_threads_issue_accesses_in_issue_order():
    """Each thread issues exactly its chunks of the issue order: the
    shortest streams wrap, the longest completes exactly one pass."""
    streams = [s[: 400 * (t + 1)] for t, s in enumerate(disjoint_streams(4, 1600, 100, seed=3))]
    stats = simulate_shared(streams, PAPER_L1I)
    issued = [0] * 4
    for t, start, end in issue_order([len(s) for s in streams], 8):
        issued[t] += end - start
    assert [st_.accesses for st_ in stats] == issued
    assert stats[3].accesses == 1600
    assert stats[0].accesses > 400


@settings(max_examples=20, deadline=None)
@given(
    n_threads=st.integers(2, 4),
    quantum=st.sampled_from([1, 4, 16]),
    seed=st.integers(0, 100),
)
def test_wrapped_matches_issue_order_reference(n_threads, quantum, seed):
    """N-thread generalization of the merged-stream equivalence, with
    unequal lengths so the shorter streams wrap."""
    rng = np.random.default_rng(seed)
    streams = [
        rng.integers(t * 1000, t * 1000 + 60, 300 - 50 * t) for t in range(n_threads)
    ]
    cfg = CacheConfig(size_bytes=4 * 1024, assoc=4, line_bytes=64)
    shared = simulate_shared(streams, cfg, quantum=quantum)
    solo = simulate(issued_stream(streams, quantum), cfg)
    assert sum(s.misses for s in shared) == solo.misses
    assert sum(s.accesses for s in shared) == solo.accesses
