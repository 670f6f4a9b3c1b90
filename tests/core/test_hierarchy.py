"""Unit tests for the affinity hierarchy (repro.core.hierarchy)."""

import numpy as np
import pytest

from repro.core import AffinityAnalysis, build_hierarchy, hierarchy_levels, layout_order

FIG1 = np.array([1, 4, 2, 4, 2, 3, 5, 1, 4])


def fig1_forest(w_max=6):
    return build_hierarchy(AffinityAnalysis(FIG1, w_max=w_max))


def test_figure1_layout_sequence():
    # The paper's published output sequence: B1 B4 B2 B3 B5.
    assert layout_order(fig1_forest()) == [1, 4, 2, 3, 5]


def test_figure1_levels():
    levels = hierarchy_levels(fig1_forest())
    assert levels[2] == [[1], [4], [2], [3, 5]]
    assert levels[3] == [[1, 4], [2], [3, 5]]
    assert levels[4] == [[1, 4], [2, 3, 5]]
    assert levels[5] == [[1, 4, 2, 3, 5]]


def test_levels_are_nested_coarsenings():
    levels = hierarchy_levels(fig1_forest())
    ws = sorted(levels)
    for w_small, w_big in zip(ws, ws[1:]):
        fine = [set(g) for g in levels[w_small]]
        for group in levels[w_big]:
            gset = set(group)
            # every coarse group is a union of fine groups.
            covered = [f for f in fine if f <= gset]
            assert set().union(*covered) == gset


def test_layout_is_permutation_of_symbols():
    rng = np.random.default_rng(1)
    t = rng.integers(0, 12, 300)
    analysis = AffinityAnalysis(t, w_max=8)
    order = layout_order(build_hierarchy(analysis))
    assert sorted(order) == sorted(set(t.tolist()))


def test_deterministic():
    rng = np.random.default_rng(2)
    t = rng.integers(0, 10, 200)
    a1 = layout_order(build_hierarchy(AffinityAnalysis(t, w_max=6)))
    a2 = layout_order(build_hierarchy(AffinityAnalysis(t, w_max=6)))
    assert a1 == a2


def test_custom_w_values_shows_precedence_effect():
    # Without the w=2 pass, (B2,B3) forms at w=3 instead of (B3,B5) —
    # the paper's remark that lower-level groups take precedence, and the
    # partition is otherwise not unique.
    analysis = AffinityAnalysis(FIG1, w_max=6)
    forest = build_hierarchy(analysis, w_values=[3])
    levels = hierarchy_levels(forest)
    assert list(levels) == [3]
    assert levels[3] == [[1, 4], [2, 3], [5]]
    # with the full sweep, w=3 instead keeps (B3,B5) (cf. Fig. 1).
    full = hierarchy_levels(build_hierarchy(analysis))
    assert full[3] == [[1, 4], [2], [3, 5]]


def test_w_values_validation():
    analysis = AffinityAnalysis(FIG1, w_max=4)
    with pytest.raises(ValueError):
        build_hierarchy(analysis, w_values=[3, 3])
    with pytest.raises(ValueError):
        build_hierarchy(analysis, w_values=[2, 10])
    with pytest.raises(ValueError):
        build_hierarchy(analysis, w_values=[-3])
    with pytest.raises(ValueError):
        build_hierarchy(analysis, w_values=[0, 2])


def test_single_symbol_trace():
    analysis = AffinityAnalysis(np.array([7, 7, 7]), w_max=3)
    forest = build_hierarchy(analysis)
    assert layout_order(forest) == [7]
    assert forest[0].is_leaf
