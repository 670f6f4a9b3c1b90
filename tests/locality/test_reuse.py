"""Unit and property tests for reuse distance (LRU stack distance).

The repository has one reuse-distance implementation: the stack-distance
kernel of :mod:`repro.cache.fastsim`, whose ``n_sets=1`` case is the
fully associative reuse distance of the paper's Sec. II-A.  Histogram
bucket ``d`` holds accesses with stack distance ``d`` (0-indexed), i.e.
reuse distance ``d + 1`` counted inclusively.  Both constructions — the
Fenwick oracle (``scalar`` tier) and the sweep (``numpy`` tier) — are
checked here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.fastsim import fenwick_histogram, stack_distance_histogram

CONSTRUCTIONS = (fenwick_histogram, stack_distance_histogram)

traces = st.lists(st.integers(0, 8), min_size=0, max_size=250).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


def _histograms(trace):
    """The fully associative histogram of ``trace`` by both constructions."""
    return [build(np.asarray(trace, dtype=np.int64), 1) for build in CONSTRUCTIONS]


def _naive(trace) -> tuple[int, list[int]]:
    """(cold, histogram) by walking one LRU stack access by access."""
    stack: list[int] = []
    hist: list[int] = []
    cold = 0
    for x in np.asarray(trace).tolist():
        if x in stack:
            d = stack.index(x)
            stack.pop(d)
            hist.extend([0] * (d + 1 - len(hist)))
            hist[d] += 1
        else:
            cold += 1
        stack.insert(0, x)
    return cold, hist


def test_simple_example():
    # a b a: a's second access sees {b, a} -> reuse distance 2.
    for hist in _histograms([1, 2, 1]):
        assert hist.cold == 2
        assert hist.hist.tolist() == [0, 1]


def test_immediate_repeat_distance_one():
    for hist in _histograms([7, 7, 7]):
        assert hist.cold == 1
        assert hist.hist.tolist() == [2]


def test_all_distinct_all_cold():
    for hist in _histograms(np.arange(10)):
        assert hist.cold == 10
        assert hist.hist.size == 0


@settings(max_examples=100, deadline=None)
@given(traces)
def test_fenwick_matches_naive(t):
    cold, naive = _naive(t)
    for hist in _histograms(t):
        assert hist.cold == cold
        assert hist.hist.tolist() == naive


def test_histogram_counts():
    for hist in _histograms([1, 2, 1, 2, 1]):
        assert hist.cold == 2
        assert hist.hist[1] == 3


def test_miss_ratio_curve_monotone_nonincreasing():
    rng = np.random.default_rng(3)
    t = rng.integers(0, 30, 500)
    caps = [1, 2, 4, 8, 16, 32, 64]
    for hist in _histograms(t):
        curve = np.array([hist.misses(c) / len(t) for c in caps])
        assert (np.diff(curve) <= 0).all()
        # at a capacity above the alphabet only cold misses remain.
        assert hist.misses(caps[-1]) == hist.cold


def test_miss_ratio_curve_small_capacity():
    # capacity 1: hit only on immediate repeats.
    for hist in _histograms([1, 1, 2, 1]):
        assert hist.misses(1) == 3


def test_empty_trace_curve():
    for hist in _histograms(np.empty(0, dtype=np.int64)):
        assert hist.accesses == 0
        assert hist.misses(4) == 0
