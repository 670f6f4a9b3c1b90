"""Unit tests for HOTL conversions (repro.locality.hotl)."""

import numpy as np
import pytest

from repro.locality import (
    footprint_curve,
    miss_ratio,
    shared_fill_time,
    shared_miss_ratios,
)


def cyclic_trace(n_symbols, repeats):
    return np.tile(np.arange(n_symbols), repeats)


def test_fits_in_cache_no_misses():
    c = footprint_curve(cyclic_trace(4, 50))
    assert miss_ratio(c, 10) == 0.0


def test_thrashing_cycle_misses():
    # cycling 20 symbols in a 10-capacity LRU-like model: growth stays 1
    # until the cycle is covered.
    c = footprint_curve(cyclic_trace(20, 20))
    assert miss_ratio(c, 10) == pytest.approx(1.0, abs=0.05)


def test_miss_ratio_monotone_in_capacity():
    rng = np.random.default_rng(5)
    t = rng.integers(0, 50, 2000)
    c = footprint_curve(t)
    caps = [2, 4, 8, 16, 32, 64]
    curve = np.array([miss_ratio(c, cap) for cap in caps])
    assert (np.diff(curve) <= 1e-9).all()


def test_capacity_validation():
    c = footprint_curve(np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        miss_ratio(c, 0)


def test_shared_fill_time_earlier_than_solo():
    a = footprint_curve(cyclic_trace(12, 30))
    b = footprint_curve(cyclic_trace(12, 30))
    shared = shared_fill_time([a, b], 10)
    solo = a.fill_time(10)
    assert shared <= solo


def test_shared_fill_time_no_contention():
    a = footprint_curve(cyclic_trace(2, 10))
    b = footprint_curve(cyclic_trace(2, 10))
    assert shared_fill_time([a, b], 100) == max(a.n, b.n) + 1
    assert shared_miss_ratios([a, b], 100) == [0.0, 0.0]


def test_corun_miss_at_least_solo():
    rng = np.random.default_rng(6)
    t1 = rng.integers(0, 40, 3000)
    t2 = rng.integers(0, 40, 3000)
    a, b = footprint_curve(t1), footprint_curve(t2)
    cap = 30.0
    solo = miss_ratio(a, cap)
    shared = shared_miss_ratios([a, b], cap)[0]
    assert shared >= solo - 1e-12


def test_shared_validation():
    a = footprint_curve(np.array([1, 2]))
    with pytest.raises(ValueError):
        shared_fill_time([], 4)
    with pytest.raises(ValueError):
        shared_fill_time([a], 0)


def test_shared_fill_time_capacity_boundary_tolerance():
    """shared_fill_time follows FootprintCurve.fill_time's boundary: a
    capacity within 1e-9 of the combined total footprint behaves like
    the total itself rather than flipping to max_n + 1."""
    a = footprint_curve(cyclic_trace(6, 20))
    b = footprint_curve(cyclic_trace(6, 20))
    total_m = a.m + b.m
    at_total = shared_fill_time([a, b], float(total_m))
    assert at_total <= max(a.n, b.n)
    assert shared_fill_time([a, b], total_m + 1e-9) == at_total
    # Meaningfully above the total stays "no contention".
    assert shared_fill_time([a, b], total_m * 1.01) == max(a.n, b.n) + 1


def test_shared_vectorized_matches_scalar_oracle():
    """The composed-curve fast path must answer exactly what the
    per-probe scalar oracle answers — same binary search, same sums."""
    from repro.locality import (
        shared_fill_time_scalar,
        shared_miss_ratios_scalar,
    )

    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        curves = [
            footprint_curve(rng.integers(0, 30, int(rng.integers(5, 200))))
            for _ in range(k)
        ]
        total_m = sum(c.m for c in curves)
        for cap in (*rng.uniform(0.5, total_m * 1.2, size=4),
                    float(total_m), total_m + 1e-10):
            cap = float(cap)
            assert shared_fill_time(curves, cap) == shared_fill_time_scalar(
                curves, cap
            )
            assert shared_miss_ratios(curves, cap) == shared_miss_ratios_scalar(
                curves, cap
            )


def test_shared_fill_time_rejects_non_finite_capacity():
    """NaN compares False against every threshold, so pre-fix a NaN
    capacity silently fell through to the binary search; both paths must
    raise instead."""
    from repro.locality import shared_fill_time_scalar

    a = footprint_curve(cyclic_trace(4, 10))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            shared_fill_time([a, a], bad)
        with pytest.raises(ValueError):
            shared_fill_time_scalar([a, a], bad)
