"""Unit and property tests for trace trimming (repro.trace.trim)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import trim

traces = st.lists(st.integers(0, 6), min_size=0, max_size=200).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


def test_example_from_definition():
    assert trim(np.array([1, 1, 2, 2, 2, 1])).tolist() == [1, 2, 1]


def test_empty_and_singleton():
    assert trim(np.empty(0, dtype=np.int64)).shape == (0,)
    assert trim(np.array([5])).tolist() == [5]


def test_rejects_multidim():
    with pytest.raises(ValueError):
        trim(np.zeros((2, 2), dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(traces)
def test_trim_has_no_consecutive_duplicates(t):
    trimmed = trim(t)
    assert np.all(trimmed[1:] != trimmed[:-1])


@settings(max_examples=100, deadline=None)
@given(traces)
def test_trim_idempotent(t):
    once = trim(t)
    assert np.array_equal(trim(once), once)


@settings(max_examples=100, deadline=None)
@given(traces)
def test_trim_preserves_symbol_set_and_order(t):
    trimmed = trim(t)
    assert set(trimmed.tolist()) == set(t.tolist())
    # trimmed is a subsequence of the original.
    it = iter(t.tolist())
    assert all(any(x == y for y in it) for x in trimmed.tolist())
