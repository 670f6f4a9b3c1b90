"""StaticLintContext: line heat, set mapping, conflict scores, footprint."""

import pytest

from repro.ir.codegen import place_blocks
from repro.staticlint.conflict import StaticLintContext
from repro.staticlint.frequency import estimate_frequencies

from .conftest import TINY_CACHE, heat_module


def _ctx(starts_by_gid, hot_coverage=0.9):
    m = heat_module()
    amap = place_blocks(m, starts_by_gid)
    profile = estimate_frequencies(m)
    return StaticLintContext(
        m, amap, TINY_CACHE, profile, hot_coverage=hot_coverage
    )


#: a=1, b=4, c=1, d=1 expected executions (see conftest.heat_module);
#: bytes 512 apart collide in the same set of the tiny cache.
CONFLICT_PLACEMENT = {0: 0, 1: 512, 2: 1024, 3: 64}  # lines 0, 8, 16, 1


def test_line_heat_is_frequency_weighted():
    ctx = _ctx(CONFLICT_PLACEMENT)
    assert ctx.line_heat == pytest.approx({0: 1.0, 8: 4.0, 16: 1.0, 1: 1.0})
    assert ctx.image_lines == [0, 1, 8, 16]


def test_warm_lines_grouped_by_set():
    ctx = _ctx(CONFLICT_PLACEMENT)
    # Lines 0, 8, 16 all map to set 0 (8 sets); line 1 to set 1.
    assert ctx.warm_lines_by_set == {0: [0, 8, 16], 1: [1]}


def test_conflict_scores_charge_unservable_heat_fraction():
    ctx = _ctx(CONFLICT_PLACEMENT)
    scores = ctx.conflict_scores
    # Set 0: heats [4, 1, 1] over 2 ways -> overflow fraction 1/6.
    assert scores[0] == pytest.approx(1 / 6)
    assert scores[8] == pytest.approx(4 / 6)
    assert scores[16] == pytest.approx(1 / 6)
    # Calm set scores 0; every image line has an entry.
    assert scores[1] == 0.0
    assert set(scores) == set(ctx.image_lines)


def test_no_conflict_when_sets_are_spread():
    ctx = _ctx({0: 0, 1: 64, 2: 128, 3: 192})  # sets 0..3
    assert all(v == 0.0 for v in ctx.conflict_scores.values())
    assert all(len(ls) <= TINY_CACHE.assoc for ls in ctx.warm_lines_by_set.values())


def test_set_at_exactly_assoc_is_calm():
    # Two warm lines in set 0 == assoc: LRU keeps both resident.
    ctx = _ctx({0: 0, 1: 512, 2: 64, 3: 128})
    assert ctx.conflict_scores[0] == 0.0
    assert ctx.conflict_scores[8] == 0.0


def test_footprint_bound():
    ctx = _ctx(CONFLICT_PLACEMENT)
    # Heat curve [4, 1, 1, 1], total 7: half the fetches fit in 1 line.
    assert ctx.lines_for_coverage(0.5) == 1
    assert ctx.lines_for_coverage(1.0) == 4
    with pytest.raises(ValueError):
        ctx.lines_for_coverage(0.0)
    with pytest.raises(ValueError):
        ctx.lines_for_coverage(1.5)


def test_hot_projections_follow_coverage():
    ctx = _ctx(CONFLICT_PLACEMENT, hot_coverage=0.55)
    # 0.55 of 7 = 3.85 <= 4: block b alone is the hot set.
    assert ctx.hot_gids == [1]
    assert ctx.hot_lines == [8]
    assert ctx.is_hot(1) and not ctx.is_hot(0)
    assert ctx.hot_line_blocks == {8: [1]}


def test_profile_module_identity_enforced():
    m1, m2 = heat_module(), heat_module()
    amap = place_blocks(m1, CONFLICT_PLACEMENT)
    profile = estimate_frequencies(m2)
    with pytest.raises(ValueError, match="different module"):
        StaticLintContext(m1, amap, TINY_CACHE, profile)


def test_hot_coverage_validated():
    m = heat_module()
    amap = place_blocks(m, CONFLICT_PLACEMENT)
    profile = estimate_frequencies(m)
    with pytest.raises(ValueError, match="hot_coverage"):
        StaticLintContext(m, amap, TINY_CACHE, profile, hot_coverage=0.0)
