"""Unit tests for cache-line coloring placement (repro.core.coloring)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.core.coloring import _color_hot, color_functions
from repro.core.optimizers import OptimizerConfig
from repro.engine import InputSpec, collect_trace
from repro.ir import LayoutKind, baseline_layout
from repro.workloads import build

from .coloring_oracle import color_hot_reference


SMALL_CACHE = CacheConfig(size_bytes=1024, assoc=1, line_bytes=64)  # 16 sets


def test_layout_is_legal(tiny_module, tiny_bundle):
    layout = color_functions(tiny_module, tiny_bundle, cache=SMALL_CACHE)
    amap = layout.address_map
    assert layout.kind is LayoutKind.FUNCTION
    assert sorted(amap.order) == list(range(tiny_module.n_blocks))
    assert not amap.overlaps()
    assert "coloring" in layout.note


def test_gaps_allowed_but_bounded(tiny_module, tiny_bundle):
    layout = color_functions(tiny_module, tiny_bundle, cache=SMALL_CACHE)
    dense = baseline_layout(tiny_module)
    # coloring may pad, but by at most ~one cache of lines per hot function.
    n_hot_funcs = 3  # main, x, y all execute
    max_pad = n_hot_funcs * SMALL_CACHE.size_bytes
    assert dense.address_map.end <= layout.address_map.end <= dense.address_map.end + max_pad


def test_functions_stay_contiguous(tiny_module, tiny_bundle):
    layout = color_functions(tiny_module, tiny_bundle, cache=SMALL_CACHE)
    amap = layout.address_map
    for func in tiny_module.functions:
        gids = [b.gid for b in func.blocks]
        starts = [int(amap.starts[g]) for g in gids]
        # blocks in declaration order at increasing addresses, densely
        # (up to their own jump budgets).
        assert starts == sorted(starts)
        span = max(
            int(amap.starts[g]) + int(amap.sizes[g]) for g in gids
        ) - min(starts)
        assert span <= func.size_bytes + 4 * len(gids)


def test_accepts_optimizer_config(tiny_module, tiny_bundle):
    cfg = OptimizerConfig(cache=SMALL_CACHE)
    layout = color_functions(tiny_module, tiny_bundle, cfg)
    assert "16 sets" in layout.note


def test_avoids_conflicting_hot_functions():
    """Two conflicting hot functions must get different colors."""
    from repro.ir import ModuleBuilder

    b = ModuleBuilder("m")
    f = b.function("main")
    f.block("entry", 2).loop("c1", "done", trips=500)
    f.block("c1", 1).call("a", return_to="c2")
    f.block("c2", 1).call("b", return_to="entry")
    f.block("done", 1).exit()
    for name in ("a", "b"):
        g = b.function(name)
        g.block("e", 32).ret()  # two lines each
    module = b.build()
    bundle = collect_trace(module, InputSpec("t", seed=0, max_blocks=4000))
    cache = CacheConfig(size_bytes=256, assoc=1, line_bytes=64)  # 4 sets
    layout = color_functions(module, bundle, cache=cache)
    amap = layout.address_map
    a_set = (int(amap.starts[module.function("a").entry.gid]) // 64) % 4
    b_set = (int(amap.starts[module.function("b").entry.gid]) // 64) % 4
    # each function spans 2 of the 4 sets; non-overlap means colors differ
    # by exactly 2.
    assert a_set != b_set


def test_cold_functions_packed_densely(tiny_module):
    # a bundle in which nothing from leaf y executes.
    bundle = collect_trace(tiny_module, InputSpec("t", seed=0, max_blocks=2))
    layout = color_functions(tiny_module, bundle, cache=SMALL_CACHE)
    assert sorted(layout.address_map.order) == list(range(tiny_module.n_blocks))


def _layout_digest(layout) -> str:
    """The function order plus every block's start address."""
    h = hashlib.sha256(repr([str(s) for s in layout.order]).encode())
    h.update(np.ascontiguousarray(layout.address_map.starts, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "name, digest",
    [("syn-gcc", "e53d89e10d4deed8"), ("syn-mcf", "91860c88096bf7c3")],
)
@pytest.mark.parametrize("tier", ["numpy", "scalar"])
def test_suite_layout_is_pinned(name, digest, tier):
    """The placement on two suite programs, on either kernel tier, is the
    one the scalar TRG build with per-pair weight lookups produced."""
    prog, module = build(name, ref_blocks=10_000, test_blocks=2_000)
    bundle = collect_trace(module, prog.spec.test_input())
    layout = color_functions(module, bundle, OptimizerConfig(kernel_backend=tier))
    assert _layout_digest(layout) == digest


@st.composite
def placements(draw):
    """Function sizes in bytes (some past the cache), jump budgets, a
    symmetric conflict matrix with few distinct weights (ties are common)
    and a hot order over some of the functions."""
    n_funcs = draw(st.integers(1, 9))
    line = draw(st.sampled_from([4, 16, 64]))
    n_sets = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.integers(1, 14 * line), min_size=n_funcs, max_size=n_funcs))
    budgets = draw(st.lists(st.integers(0, 3), min_size=n_funcs, max_size=n_funcs))
    weight = st.sampled_from([0, 0, 1, 2, draw(st.integers(1, 10**6))])
    conflicts = np.zeros((n_funcs, n_funcs), dtype=np.int64)
    for i in range(n_funcs):
        for j in range(i + 1, n_funcs):
            conflicts[i, j] = conflicts[j, i] = draw(weight)
    hot = draw(st.permutations(range(n_funcs)))[: draw(st.integers(0, n_funcs))]
    sizes_lines = [-(-size // line) for size in sizes]
    extents = [size + 4 * budget for size, budget in zip(sizes, budgets)]
    return list(hot), conflicts, sizes_lines, extents, line, n_sets


@settings(max_examples=300, deadline=None)
@given(placements())
def test_closed_form_colors_match_the_loop(case):
    """Pricing every color as a window sum of one weighted occupancy
    vector picks the colors, and so the addresses, of the color-by-color
    loop."""
    assert _color_hot(*case) == color_hot_reference(*case)
