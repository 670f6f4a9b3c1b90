"""Unit tests for the two-level hierarchy (repro.cache.hierarchy)."""

import numpy as np
import pytest

from repro.cache import (
    CacheConfig,
    HierarchyConfig,
    PAPER_HIERARCHY,
    simulate,
    simulate_hierarchy,
    simulate_hierarchy_shared,
)

SMALL = HierarchyConfig(
    l1i=CacheConfig(512, 2, 64),
    l1d=CacheConfig(512, 2, 64),
    l2=CacheConfig(2048, 4, 64),
)


def make_stream(i_lines, d_lines):
    lines = np.array(list(i_lines) + list(d_lines), dtype=np.int64)
    is_data = np.array([False] * len(i_lines) + [True] * len(d_lines))
    return lines, is_data


def test_paper_hierarchy_geometry():
    assert PAPER_HIERARCHY.l1i.size_bytes == 32 * 1024
    assert PAPER_HIERARCHY.l1d.assoc == 8
    assert PAPER_HIERARCHY.l2.size_bytes == 256 * 1024


def test_routing_by_access_kind():
    lines, is_data = make_stream([1, 2, 1], [100, 100])
    stats = simulate_hierarchy(lines, is_data, SMALL)
    assert stats.l1i.accesses == 3
    assert stats.l1d.accesses == 2
    assert stats.l1i.misses == 2  # 1, 2 cold; 1 hits
    assert stats.l1d.misses == 1


def test_l2_sees_only_l1_misses():
    lines, is_data = make_stream([1, 1, 1, 2], [])
    stats = simulate_hierarchy(lines, is_data, SMALL)
    assert stats.l2.accesses == stats.l1i.misses + stats.l1d.misses == 2
    assert stats.l2.misses == 2  # both cold in L2 as well


def test_l2_absorbs_l1_conflicts():
    # two lines conflicting in a 1-set L1 but co-resident in L2.
    cfg = HierarchyConfig(
        l1i=CacheConfig(64, 1, 64),  # 1 line total
        l1d=CacheConfig(64, 1, 64),
        l2=CacheConfig(512, 8, 64),
    )
    pattern = [1, 2] * 20
    lines, is_data = make_stream(pattern, [])
    stats = simulate_hierarchy(lines, is_data, cfg)
    assert stats.l1i.misses == 40  # every access conflicts in L1
    assert stats.l2.misses == 2  # but L2 holds both


def test_instruction_side_matches_flat_simulator():
    rng = np.random.default_rng(0)
    ilines = rng.integers(0, 30, 2000)
    lines, is_data = make_stream(ilines.tolist(), [])
    stats = simulate_hierarchy(lines, is_data, SMALL)
    flat = simulate(ilines, SMALL.l1i)
    assert stats.l1i.misses == flat.misses


def test_shape_validation():
    with pytest.raises(ValueError):
        simulate_hierarchy(np.array([1, 2]), np.array([True]), SMALL)


def test_shared_hierarchy_contention():
    # each thread's data fits L2 alone; together they thrash it.
    a = make_stream([], list(range(1000, 1024)) * 10)
    b = make_stream([], list(range(2000, 2024)) * 10)
    solo = simulate_hierarchy(*a, SMALL)
    both = simulate_hierarchy_shared([a, b], SMALL, quantum=4)
    assert both[0].l1d.misses >= solo.l1d.misses
    # per-thread stats attribute accesses correctly.
    assert both[0].l1d.accesses >= a[0].shape[0]
    assert both[1].l1d.accesses >= b[0].shape[0]


def test_shared_empty_and_validation():
    assert simulate_hierarchy_shared([], SMALL) == []
    with pytest.raises(ValueError):
        simulate_hierarchy_shared([make_stream([1], [])], SMALL, quantum=0)
    lines = np.arange(10, dtype=np.int64)
    with pytest.raises(ValueError, match="align"):
        simulate_hierarchy_shared([make_stream([1], []), (lines, np.zeros(5, dtype=bool))], SMALL)


def test_l2_miss_ratio_per_access():
    lines, is_data = make_stream([1, 2, 3], [100])
    stats = simulate_hierarchy(lines, is_data, SMALL)
    assert stats.l2_miss_ratio_per_access == pytest.approx(stats.l2.misses / 4)
