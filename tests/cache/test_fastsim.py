"""Parity and property tests for the stack-distance kernel
(repro.cache.fastsim).

The contract under test: on its supported domain — cold cache, no
prefetch, true LRU — the kernel is **bit-identical** to the event-driven
simulator for every (n_sets, assoc) geometry, from one histogram per
n_sets.  Outside that domain it must refuse loudly, never silently
diverge: prefetch, warm-start and co-run runs stay on the event-driven
simulators.
"""

import numpy as np
import pytest

from repro.cache import (
    CacheConfig,
    DistanceHistogram,
    fenwick_histogram,
    simulate,
    stack_distance_histogram,
)

N_SETS = (1, 2, 64, 128)
ASSOCS = (1, 2, 4, 8)


def cfg_for(n_sets: int, assoc: int) -> CacheConfig:
    return CacheConfig(
        size_bytes=n_sets * assoc * 64, assoc=assoc, line_bytes=64
    )


def _streams():
    """Named streams covering the shapes real fetch traces produce."""
    rng = np.random.default_rng(20140731)
    tile = np.arange(300)
    return {
        "random": rng.integers(0, 700, 6000),
        "random-wide": rng.integers(0, 100_000, 6000),
        "tiled-wraps": np.tile(tile, 12),  # loop that wraps the cache
        "duplicates": np.repeat(rng.integers(0, 500, 1500), 4),
        "tiny-hot": rng.integers(0, 8, 4000),  # everything in few sets
        "single-value": np.full(1000, 42),
        "empty": np.array([], dtype=np.int64),
    }


@pytest.mark.parametrize("stream_name", sorted(_streams()))
@pytest.mark.parametrize("n_sets", N_SETS)
def test_parity_with_scalar_simulator(stream_name, n_sets):
    """One histogram answers every associativity, bit-identically."""
    lines = _streams()[stream_name]
    hist = stack_distance_histogram(lines, n_sets)
    for assoc in ASSOCS:
        cfg = cfg_for(n_sets, assoc)
        assert hist.stats(assoc) == simulate(lines, cfg, prefetch=False), (
            stream_name,
            n_sets,
            assoc,
        )


@pytest.mark.parametrize("n_sets", N_SETS)
def test_randomized_geometry_matrix(n_sets):
    """Seeded random streams across the full geometry matrix."""
    rng = np.random.default_rng(1000 + n_sets)
    for trial in range(3):
        lines = rng.integers(0, rng.integers(10, 5000), rng.integers(1, 3000))
        hist = stack_distance_histogram(lines, n_sets)
        for assoc in ASSOCS:
            assert hist.stats(assoc) == simulate(lines, cfg_for(n_sets, assoc))


def test_single_set_degenerate_geometry():
    """The fully-associative single-set case (PR 3's prefetch fix covered
    the scalar side of this geometry; the kernel must match it)."""
    rng = np.random.default_rng(7)
    lines = rng.integers(0, 10, 2000)
    for assoc in (1, 2, 4, 8):
        cfg = CacheConfig(size_bytes=assoc * 64, assoc=assoc, line_bytes=64)
        assert cfg.n_sets == 1
        hist = stack_distance_histogram(lines, cfg.n_sets)
        assert hist.stats(cfg.assoc) == simulate(lines, cfg)


@pytest.mark.parametrize("stream_name", sorted(_streams()))
@pytest.mark.parametrize("n_sets", N_SETS)
def test_histogram_constructions_agree(stream_name, n_sets):
    """Both constructions — the Fenwick pass (the scalar tier's oracle)
    and the offline dominance-count sweep (the numpy tier) — are
    bit-identical."""
    lines = _streams()[stream_name]
    assert fenwick_histogram(lines, n_sets) == stack_distance_histogram(lines, n_sets)


@pytest.mark.parametrize("n_sets", (1, 4, 128))
def test_per_line_misses_pinned_against_naive_walk(n_sets):
    """The hot-setup rewrite of per_line_misses (shared d0 strip + set
    bounds, no per-set id rebuilds) changes no behavior: counts match a
    naive per-set LRU stack walk, and their sum matches the histogram.
    Geometries with empty sets included (ids drawn from few values)."""
    from repro.cache.fastsim import per_line_misses

    rng = np.random.default_rng(4242 + n_sets)
    streams = [
        rng.integers(0, 9, 3000),  # most sets empty at n_sets=128
        np.repeat(rng.integers(0, 400, 800), 3),  # d0 repeats stripped
        rng.integers(0, 5000, 4000),
        np.array([], dtype=np.int64),
    ]
    for assoc in (1, 4):
        cfg = cfg_for(n_sets, assoc)
        for lines in streams:
            expected: dict[int, int] = {}
            stacks: dict[int, list[int]] = {}
            for line in np.asarray(lines, dtype=np.int64).tolist():
                stack = stacks.setdefault(line & (n_sets - 1), [])
                if line in stack:
                    d = stack.index(line)
                    stack.insert(0, stack.pop(d))
                    if d >= assoc:
                        expected[line] = expected.get(line, 0) + 1
                else:
                    expected[line] = expected.get(line, 0) + 1
                    stack.insert(0, line)
            got = per_line_misses(lines, cfg)
            assert got == expected
            hist = stack_distance_histogram(lines, n_sets)
            assert sum(got.values()) == hist.misses(assoc)


def test_histogram_invariants():
    rng = np.random.default_rng(99)
    lines = rng.integers(0, 900, 5000)
    for n_sets in N_SETS:
        hist = stack_distance_histogram(lines, n_sets)
        # Every access is either cold or lands in some histogram bucket.
        assert hist.cold + int(hist.hist.sum()) == hist.accesses == len(lines)
        # A line maps to one set, so cold == distinct lines.
        assert hist.cold == len(np.unique(lines))
        # Misses are monotonically non-increasing in associativity...
        miss_curve = [hist.misses(a) for a in range(1, 40)]
        assert all(a >= b for a, b in zip(miss_curve, miss_curve[1:]))
        # ...and bottom out at the compulsory misses.
        assert hist.misses(10**6) == hist.cold


def test_empty_stream():
    hist = stack_distance_histogram(np.array([], dtype=np.int64), 64)
    assert hist.accesses == 0 and hist.cold == 0
    assert hist.misses(4) == 0
    assert hist.stats(4) == simulate(np.array([], dtype=np.int64), cfg_for(64, 4))


def test_sweep_stats_matches_scalar_sweep():
    rng = np.random.default_rng(11)
    lines = rng.integers(0, 2000, 4000)
    hist = stack_distance_histogram(lines, 128)
    for assoc in (1, 2, 4, 8, 16):
        assert hist.stats(assoc) == simulate(lines, cfg_for(128, assoc))


def test_rejects_bad_geometry_and_method():
    for build in (stack_distance_histogram, fenwick_histogram):
        with pytest.raises(ValueError, match="power of two"):
            build(np.arange(10), 96)
        with pytest.raises(ValueError, match="power of two"):
            build(np.arange(10), 0)
    # The construction belongs to the kernel tier: there is no method knob.
    with pytest.raises(TypeError):
        stack_distance_histogram(np.arange(10), 64, method="sweep")
    with pytest.raises(ValueError, match="one-dimensional"):
        stack_distance_histogram(np.zeros((3, 3)), 64)
    with pytest.raises(ValueError, match="assoc"):
        stack_distance_histogram(np.arange(10), 64).misses(0)


def test_histogram_round_trip_and_equality():
    rng = np.random.default_rng(3)
    lines = rng.integers(0, 300, 2000)
    hist = stack_distance_histogram(lines, 64)
    clone = DistanceHistogram.from_dict(hist.to_dict())
    assert clone == hist
    assert clone.misses(4) == hist.misses(4)
    other = stack_distance_histogram(lines[:-1], 64)
    assert hist != other
    assert hist.__eq__(object()) is NotImplemented
