"""Vectorized footprint composition (repro.fleet.compose).

The load-bearing contract: the vectorized path answers **bit-identically**
to the scalar oracles ``shared_fill_time_scalar`` /
``shared_miss_ratios_scalar`` kept in :mod:`repro.locality.hotl` — exact
``==``, no tolerance — on arbitrary curve sets, unequal trace lengths,
and capacities around the no-contention boundary.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.compose import ComposedGroup, CurveSet
from repro.locality import (
    footprint_curve,
    shared_fill_time,
    shared_fill_time_scalar,
    shared_fill_times,
    shared_growth,
    shared_miss_ratios,
    shared_miss_ratios_scalar,
)

from .compose_oracle import compose_curves


def random_curves(seed, k=None):
    rng = np.random.default_rng(seed)
    k = k if k is not None else int(rng.integers(2, 6))
    return [
        footprint_curve(
            rng.integers(0, int(rng.integers(4, 40)), size=int(rng.integers(8, 300)))
        )
        for _ in range(k)
    ]


def boundary_caps(curves, seed):
    rng = np.random.default_rng(seed)
    total_m = sum(c.m for c in curves)
    return np.concatenate(
        [
            rng.uniform(0.5, max(total_m * 1.2, 2.0), size=8),
            [float(total_m), total_m + 1e-10, total_m * 2.0],
        ]
    )


@pytest.mark.parametrize("seed", range(12))
def test_vectorized_matches_scalar_oracles_exactly(seed):
    """fill_times and miss_ratio_matrix == the scalar binary-search
    oracles, bit for bit, on randomized curve sets and capacities."""
    curves = random_curves(seed)
    caps = boundary_caps(curves, seed + 1000)
    group = CurveSet(curves).group(range(len(curves)))
    ws = group.fill_times(caps)
    grid = group.miss_ratio_matrix(caps)
    for ci, cap in enumerate(caps):
        assert int(ws[ci]) == shared_fill_time_scalar(curves, float(cap))
        ref = shared_miss_ratios_scalar(curves, float(cap))
        assert [float(x) for x in grid[:, ci]] == ref


@pytest.mark.parametrize("seed", range(6))
def test_module_level_shared_functions_match_scalar(seed):
    """The public shared_fill_time / shared_miss_ratios route through
    the batched query and must still equal their scalar twins."""
    curves = random_curves(seed)
    for cap in boundary_caps(curves, seed + 2000):
        cap = float(cap)
        assert shared_fill_time(curves, cap) == shared_fill_time_scalar(curves, cap)
        assert shared_miss_ratios(curves, cap) == shared_miss_ratios_scalar(
            curves, cap
        )


def test_unequal_trace_lengths_clamp():
    """A short program past its trace end contributes its whole footprint
    (constant m) and zero growth — the scalar convention, vectorized."""
    short = footprint_curve(np.array([1, 2, 3]))
    long = footprint_curve(np.tile(np.arange(20), 30))
    composed = compose_curves([short, long])
    assert composed.n == long.n
    assert composed.m == short.m + long.m
    # Beyond short.n the composed curve is long.fp + short.m exactly.
    w = short.n + 5
    assert float(composed(w)) == float(long(w)) + float(short.m)
    # Shared fill time past the short trace: short's ratio is 0.0.
    cap = float(short.m + long.m) * 0.9
    w_star = shared_fill_time([short, long], cap)
    if w_star > short.n:
        assert shared_miss_ratios([short, long], cap)[0] == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 9), min_size=2, max_size=60),
        min_size=2,
        max_size=4,
    ),
    st.floats(0.5, 40.0),
)
def test_composition_permutation_invariant(traces, cap):
    """Eq. 1's window is symmetric in the co-runners: any ordering of the
    curve list yields the same shared fill time, and each program's own
    ratio follows it around the permutation."""
    curves = [footprint_curve(np.array(t, dtype=np.int64)) for t in traces]
    w0 = shared_fill_time(curves, cap)
    r0 = shared_miss_ratios(curves, cap)
    for perm in itertools.permutations(range(len(curves))):
        permuted = [curves[i] for i in perm]
        assert shared_fill_time(permuted, cap) == w0
        got = shared_miss_ratios(permuted, cap)
        assert got == pytest.approx([r0[i] for i in perm], abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 9), min_size=2, max_size=60),
        min_size=2,
        max_size=4,
    ),
    st.floats(1.0, 40.0),
)
def test_shared_fill_time_bounded_by_solo(traces, cap):
    """Contention only shortens the window: peers add footprint, so the
    shared cache fills no later than any member's solo fill time.  (The
    stronger "co-run ratio >= solo ratio" claim needs a concave curve —
    growth non-increasing — which pathological traces can violate; the
    realistic-trace version lives in tests/locality/test_hotl.py.)"""
    curves = [footprint_curve(np.array(t, dtype=np.int64)) for t in traces]
    w_star = shared_fill_time(curves, cap)
    ratios = shared_miss_ratios(curves, cap)
    assert len(ratios) == len(curves)
    for c, r in zip(curves, ratios):
        assert 0.0 <= r <= 1.0 + 1e-12
        if cap <= c.m:  # above m the solo curve never fills (n + 1)
            assert w_star <= c.fill_time(cap)


def test_compose_curves_properties():
    """The aligned-sum oracle aligns unequal lengths: n = max, m = sum,
    short curves contribute their constant total footprint past their
    end."""
    a = footprint_curve(np.array([1, 2, 3]))
    b = footprint_curve(np.tile(np.arange(8), 10))
    composed = compose_curves([a, b])
    assert composed.n == max(a.n, b.n)
    assert composed.m == a.m + b.m
    for w in range(composed.n + 1):
        expect = float(a(min(w, a.n))) + float(b(min(w, b.n)))
        assert float(composed(w)) == expect
    # The aligned endpoint is the exact combined footprint.
    assert float(composed.fp[-1]) == float(a.m + b.m)
    with pytest.raises(ValueError):
        compose_curves([])


def test_curve_set_cell_accounting():
    curves = random_curves(7, k=3)
    cs = CurveSet(curves)
    assert len(cs) == 3
    assert cs.cells == 0
    caps = np.array([4.0, 8.0, 16.0])
    grid = cs.group([0, 1]).miss_ratio_matrix(caps)
    assert grid.shape == (2, 3)
    assert cs.cells == 6
    cs.group([0, 1, 2]).miss_ratio_matrix(caps)
    assert cs.cells == 6 + 9


def test_group_with_duplicate_members():
    """Replicas of one model compose as independent co-runners."""
    c = footprint_curve(np.tile(np.arange(10), 20))
    grp = CurveSet([c]).group([0, 0])
    # Two replicas hold twice the footprint: the pair reaches 2m where
    # one replica reaches m, and nothing beyond 2m ever fills.
    assert grp.fill_time(2.0 * c.m) == c.fill_time(float(c.m))
    assert grp.fill_time(2.0 * c.m + 1.0) == c.n + 1
    cap = float(c.m)  # fits solo, thrashes with a twin
    assert grp.fill_time(cap) == shared_fill_time_scalar([c, c], cap)
    assert grp.miss_ratios(cap) == shared_miss_ratios_scalar([c, c], cap)


def test_validation_errors():
    c = footprint_curve(np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        CurveSet([])
    with pytest.raises(ValueError):
        ComposedGroup(CurveSet([c]), [])
    grp = CurveSet([c]).group([0])
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            grp.fill_times(np.array([4.0, bad]))
    with pytest.raises(ValueError):
        grp.fill_times(np.array([]))


#: traces of 0-60 accesses over ten symbols; the empty trace is an
#: ``n == 0`` curve (fp = [0], m = 0).
traces = st.lists(st.integers(0, 9), min_size=0, max_size=60)


def group_caps(curves, groups, extra):
    """Capacities at, within 1e-10 of, and beyond every group's total
    footprint, below 1, plus ``extra``; only the positive ones."""
    caps = [0.5, 0.999, *extra]
    for row in groups:
        total = float(sum(curves[i].m for i in row))
        caps += [total, total + 1e-10, total - 1e-10, total * 1.5 + 1.0]
    return np.array([c for c in caps if c > 0])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(traces, min_size=1, max_size=4),
    st.integers(1, 5),
    st.data(),
)
def test_batched_query_matches_scalar_oracles(trace_list, k, data):
    """The batched bisection answers every (group, capacity) cell with
    the scalar oracles' exact fill time and miss ratios: groups of 1-5
    members with repeats, empty (n == 0) curves, capacities on and
    around each group's total footprint and below one line."""
    curves = [footprint_curve(np.array(t, dtype=np.int64)) for t in trace_list]
    member = st.integers(0, len(curves) - 1)
    groups = data.draw(
        st.lists(st.lists(member, min_size=k, max_size=k), min_size=1, max_size=4)
    )
    extra = data.draw(st.lists(st.floats(0.01, 30.0), max_size=4))
    caps = group_caps(curves, groups, extra)
    ws = shared_fill_times(curves, groups, caps)
    grid = shared_growth(curves, groups, ws)
    assert ws.shape == (len(groups), caps.size)
    assert grid.shape == (len(groups), k, caps.size)
    stacked = CurveSet(curves).group(groups).miss_ratio_matrix(caps)
    assert np.array_equal(stacked, grid)
    for g, row in enumerate(groups):
        members = [curves[i] for i in row]
        for c, cap in enumerate(caps.tolist()):
            assert int(ws[g, c]) == shared_fill_time_scalar(members, cap)
            assert grid[g, :, c].tolist() == shared_miss_ratios_scalar(members, cap)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(traces, min_size=1, max_size=4),
    st.lists(st.floats(0.01, 40.0), min_size=1, max_size=12),
)
def test_shared_fill_time_monotone_in_capacity(trace_list, caps):
    """More shared capacity never fills sooner: each group's fill times
    are non-decreasing along a sorted capacity vector."""
    curves = [footprint_curve(np.array(t, dtype=np.int64)) for t in trace_list]
    groups = [list(range(len(curves))), [0] * len(curves)]
    ws = shared_fill_times(curves, groups, sorted(caps))
    assert np.all(np.diff(ws, axis=1) >= 0)


def test_batched_query_rejects_bad_groups():
    c = footprint_curve(np.array([1, 2, 3]))
    for bad in ([0, 0], [[]], [[0, 1]], [[-1]]):
        with pytest.raises(ValueError):
            shared_fill_times([c], bad, [2.0])
    with pytest.raises(ValueError):
        shared_fill_times([], [[0]], [2.0])
    with pytest.raises(ValueError):
        CurveSet([c]).group([[0, 1]]).fill_times([2.0])
