"""Unit and property tests for all-window footprint (repro.locality.footprint)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locality import footprint_brute, footprint_curve

traces = st.lists(st.integers(0, 7), min_size=1, max_size=120).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


def test_constant_trace():
    c = footprint_curve(np.zeros(10, dtype=np.int64))
    assert c.m == 1
    assert c(1) == 1.0
    assert c(10) == 1.0


def test_all_distinct_trace():
    c = footprint_curve(np.arange(6))
    # every window of length w contains w distinct symbols.
    for w in range(1, 7):
        assert c(w) == pytest.approx(w)


def test_curve_endpoints():
    t = np.array([1, 2, 1, 3])
    c = footprint_curve(t)
    assert c(0) == 0.0
    assert c(4) == 3.0  # m distinct symbols
    assert c.n == 4


@settings(max_examples=120, deadline=None)
@given(traces, st.data())
def test_formula_matches_brute_force(t, data):
    w = data.draw(st.integers(1, t.shape[0]))
    assert footprint_curve(t)(w) == pytest.approx(footprint_brute(t, w))


@settings(max_examples=80, deadline=None)
@given(traces)
def test_curve_monotone_nondecreasing(t):
    c = footprint_curve(t)
    assert (np.diff(c.fp) >= -1e-9).all()
    assert c.fp[0] == 0.0
    assert c.fp[-1] == pytest.approx(c.m)


def test_fill_time_and_growth():
    t = np.array([1, 2, 3, 1, 2, 3, 1, 2, 3])
    c = footprint_curve(t)
    assert c.fill_time(1.0) == 1
    assert c.fill_time(3.0) <= c.n
    # capacity above total footprint is never filled.
    assert c.fill_time(10.0) == c.n + 1
    assert c.growth(c.n) == 0.0
    assert c.growth(1) == pytest.approx(float(c.fp[2] - c.fp[1]))


def test_brute_force_validates_input():
    t = np.array([1, 2])
    with pytest.raises(ValueError):
        footprint_brute(t, 0)
    with pytest.raises(ValueError):
        footprint_brute(t, 3)


def test_empty_trace():
    c = footprint_curve(np.empty(0, dtype=np.int64))
    assert c.n == 0
    assert c.m == 0
    assert c(0) == 0.0


def test_numpy_scalar_input_returns_float():
    """The old ``np.isscalar`` check leaked 0-d ndarrays for NumPy
    scalar inputs it does not recognize (``np.isscalar(np.array(3))``
    is False, and NumPy integer scalars are version-dependent); the
    ``np.ndim(w) == 0`` discriminator must return a plain float for
    every scalar kind."""
    c = footprint_curve(np.array([1, 2, 3, 1, 2, 3]))
    for w in (3, np.int64(3), np.int32(3), np.array(3)):
        value = c(w)
        assert type(value) is float, type(value)
        assert value == pytest.approx(float(c.fp[3]))
    # Array inputs still vectorize.
    arr = c(np.array([1, 2, 3]))
    assert isinstance(arr, np.ndarray) and arr.shape == (3,)


def test_fill_time_capacity_boundary_tolerance():
    """fp[n] == m exactly, but float capacities drift: a hair above m
    must behave like m itself (pre-fix, the strict c > m comparison
    returned n + 1 for fill_time(m + 1e-9) while fill_time(float(m))
    found a valid window)."""
    c = footprint_curve(np.array([1, 2, 3, 1, 2, 3, 1, 2, 3]))
    at_m = c.fill_time(float(c.m))
    assert at_m <= c.n
    assert c.fill_time(c.m + 1e-9) == at_m
    assert c.fill_time(c.m * (1 + 1e-12)) == at_m
    # Meaningfully above m is still "never fills".
    assert c.fill_time(c.m * 1.01) == c.n + 1
    assert c.fill_time(c.m + 1.0) == c.n + 1


def test_fill_time_rejects_non_finite_capacity():
    """NaN compares False against c > m and fell straight into the
    searchsorted pre-fix; non-finite capacities must raise instead."""
    c = footprint_curve(np.array([1, 2, 3, 1, 2, 3]))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            c.fill_time(bad)


def test_fill_time_nonpositive_capacity_is_zero():
    """Pinned: a capacity of zero (or below) is filled by the empty
    window — fill_time returns 0, it does not raise."""
    c = footprint_curve(np.array([1, 2, 3, 1, 2, 3]))
    assert c.fill_time(0.0) == 0
    assert c.fill_time(-1.0) == 0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(0, 9), min_size=0, max_size=80),
    st.lists(st.floats(-2.0, 25.0), min_size=1, max_size=16),
)
def test_fill_time_monotone_in_capacity(trace, caps):
    """A larger cache never fills sooner: fill_time is non-decreasing in
    the capacity, across the m snap and the n + 1 "never fills" answer."""
    c = footprint_curve(np.array(trace, dtype=np.int64))
    caps = sorted(caps + [float(c.m), c.m + 1e-10, c.m + 1.0])
    times = [c.fill_time(cap) for cap in caps]
    assert times == sorted(times)


def test_curve_dict_round_trip_bit_identical():
    """to_arrays/from_arrays is the curve-memo wire format: every fp
    value, n, and m must survive an ``.npz`` round trip exactly."""
    import io

    from repro.locality.footprint import FootprintCurve

    rng = np.random.default_rng(23)
    t = rng.integers(0, 40, 500)
    c = footprint_curve(t)
    buf = io.BytesIO()
    np.savez(buf, **c.to_arrays())
    buf.seek(0)
    with np.load(buf, allow_pickle=False) as npz:
        raw = {name: npz[name] for name in npz.files}
    back = FootprintCurve.from_arrays(raw)
    assert back.n == c.n
    assert back.m == c.m
    assert (back.fp == c.fp).all()  # exact, no tolerance
    assert back.fill_time(float(c.m) * 0.7) == c.fill_time(float(c.m) * 0.7)


def test_curve_from_dict_rejects_malformed():
    from repro.locality.footprint import FootprintCurve

    c = footprint_curve(np.array([1, 2, 3]))
    raw = c.to_arrays()
    short = dict(raw, fp=raw["fp"][:-1])  # length no longer n + 1
    with pytest.raises(ValueError):
        FootprintCurve.from_arrays(short)
    with pytest.raises((KeyError, TypeError, ValueError)):
        FootprintCurve.from_arrays({"fp": raw["fp"]})
