"""Additional footprint properties: cross-model consistency checks.

These tie the locality-theory pieces to each other: the footprint curve,
reuse distances, and the cache simulator must agree on the structural
facts they share.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, simulate
from repro.cache.fastsim import fenwick_histogram
from repro.locality import footprint_curve, miss_ratio

traces = st.lists(st.integers(0, 9), min_size=2, max_size=150).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


@settings(max_examples=60, deadline=None)
@given(traces)
def test_footprint_bounded_by_window_and_alphabet(t):
    c = footprint_curve(t)
    for w in (1, 2, 3, len(t)):
        assert c(w) <= min(w, c.m) + 1e-9


@settings(max_examples=60, deadline=None)
@given(traces)
def test_fill_time_inverse_of_curve(t):
    c = footprint_curve(t)
    for cap in (1.0, 1.5, 2.0, float(c.m)):
        w = c.fill_time(cap)
        if w <= c.n:
            assert c(w) >= cap - 1e-9
            if w > 0:
                assert c(w - 1) < cap


@settings(max_examples=40, deadline=None)
@given(traces)
def test_hotl_prediction_is_a_probability_and_vanishes_when_fitting(t):
    """The HOTL miss prediction is a valid probability and zero once the
    program's total footprint fits the capacity.  (Pointwise monotonicity
    in capacity is NOT a theorem — the footprint curve need not be concave
    on arbitrary traces, so the growth rate can wiggle; see
    repro.locality.footprint's docstring.)"""
    c = footprint_curve(t)
    for cap in (1, 2, 4, 8, c.m + 1):
        hotl = miss_ratio(c, cap)
        assert 0.0 <= hotl <= 1.0
    assert miss_ratio(c, c.m + 1) == 0.0


@settings(max_examples=30, deadline=None)
@given(traces)
def test_fully_associative_simulator_vs_reuse_distance(t):
    """Structural agreement between the event simulator and the theory:
    in a fully-associative LRU cache of capacity k, misses == cold
    accesses + accesses with reuse distance > k."""
    cfg = CacheConfig(size_bytes=8 * 64, assoc=8, line_bytes=64)
    lines = t % 64  # all map into existing tag space
    stats = simulate(lines, cfg)
    hist = fenwick_histogram(lines, 1)  # stack distance d = reuse distance - 1
    expected = hist.cold + int(hist.hist[8:].sum())
    assert stats.misses == expected


def test_footprint_of_two_interleaved_programs_superadditive():
    """fp_{A interleaved B}(w) <= fp_A(w/2) + fp_B(w/2) + boundary slack —
    the intuition behind Eq. 2's composition; checked on a concrete pair."""
    rng = np.random.default_rng(0)
    a = rng.integers(0, 20, 2000)
    b = rng.integers(100, 120, 2000)
    inter = np.empty(4000, dtype=np.int64)
    inter[0::2] = a
    inter[1::2] = b
    ci = footprint_curve(inter)
    ca, cb = footprint_curve(a), footprint_curve(b)
    for w in (10, 50, 200):
        combined = ca(w // 2) + cb(w // 2)
        assert ci(w) <= combined + 2.0
        # and interleaving cannot shrink footprints below either part.
        assert ci(w) >= max(ca(w // 2), cb(w // 2)) - 1e-9
