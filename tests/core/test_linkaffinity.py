"""Unit tests for the original link-based reference affinity (the
``linkaffinity`` oracle beside this file), and its containment of the
w-window affinity."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from .linkaffinity import is_link_affinity_group, link_affinity_partition


def test_tight_pair_is_a_group():
    t = np.array([1, 2, 9, 9, 1, 2, 8, 1, 2])
    assert is_link_affinity_group(t, {1, 2}, k=2)


def test_chained_affinity_through_middle_member():
    # A and C never co-occur tightly, but both link to B: with B in the
    # group the chain A-B-C satisfies the definition; without B it fails.
    # Pattern: A B ... B C, repeated.
    t = np.array([1, 2, 7, 2, 3, 7, 1, 2, 8, 2, 3, 8])
    assert is_link_affinity_group(t, {1, 2, 3}, k=2)
    assert not is_link_affinity_group(t, {1, 3}, k=2)


def test_singletons_and_unknowns():
    t = np.array([1, 2, 3])
    assert is_link_affinity_group(t, {1}, k=1)
    assert not is_link_affinity_group(t, {1, 99}, k=5)


def test_every_occurrence_matters():
    # 1 and 2 co-occur once, but 1's second occurrence is isolated.
    t = np.array([1, 2, 7, 8, 9, 1])
    assert not is_link_affinity_group(t, {1, 2}, k=2)


def test_partition_separates_unrelated_groups():
    # (1,2) and (6,7) are tight pairs; single-occurrence fillers between
    # them keep the cross-group windows above k, so chains cannot form.
    t = np.array([1, 2, 90, 6, 7, 91, 1, 2, 92, 6, 7, 93, 1, 2, 94, 6, 7])
    parts = link_affinity_partition(t, k=2)
    assert {1, 2} in parts
    assert {6, 7} in parts
    # every symbol appears in exactly one group.
    flat = sorted(x for g in parts for x in g)
    assert flat == sorted(set(t.tolist()))


def test_partition_at_large_k_merges_everything():
    t = np.array([1, 2, 3, 1, 2, 3])
    parts = link_affinity_partition(t, k=10)
    assert parts == [{1, 2, 3}]


def test_partition_at_k1_is_singletons():
    t = np.array([1, 2, 3, 1, 2, 3])
    parts = link_affinity_partition(t, k=1)
    assert parts == [{1}, {2}, {3}]


@settings(max_examples=30, deadline=None)
@given(
    trace=st.lists(st.integers(0, 4), min_size=2, max_size=25),
    k=st.integers(1, 4),
)
def test_partition_covers_alphabet_disjointly(trace, k):
    t = np.array(trace, dtype=np.int64)
    parts = link_affinity_partition(t, k)
    flat = [x for g in parts for x in g]
    assert sorted(flat) == sorted(set(trace))
    assert len(flat) == len(set(flat))
    # every reported group satisfies the definition.
    for g in parts:
        assert is_link_affinity_group(t, g, k)


@settings(max_examples=30, deadline=None)
@given(
    trace=st.lists(st.integers(0, 4), min_size=2, max_size=20),
)
def test_w_window_affinity_pairs_are_link_affine(trace):
    """A w-affine pair is k-link-affine at k=w: the direct window is a
    one-link chain."""
    from repro.core import AffinityAnalysis

    t = np.array(trace, dtype=np.int64)
    analysis = AffinityAnalysis(t, w_max=4)
    for w in (2, 3, 4):
        for (x, y) in analysis.affine_pairs(w):
            assert is_link_affinity_group(t, {x, y}, k=w)
