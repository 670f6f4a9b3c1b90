"""Unit and property tests for address assignment (repro.ir.codegen)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    INSTRUCTION_BYTES,
    ModuleBuilder,
    function_order_gids,
    layout_blocks,
    original_gid_order,
)


def straightline_module(sizes=(4, 6, 2, 3, 5)):
    """One function, blocks in fall-through chain entry->b1->...->exit."""
    b = ModuleBuilder("m")
    f = b.function("main")
    names = [f"b{i}" for i in range(len(sizes))]
    for i, n in enumerate(sizes):
        if i + 1 < len(sizes):
            f.block(names[i], n).jump(names[i + 1])
        else:
            f.block(names[i], n).exit()
    return b.build()


def test_original_order_chain_needs_no_jumps():
    m = straightline_module()
    amap = layout_blocks(m, original_gid_order(m))
    assert amap.added_jumps == 0
    assert amap.total_bytes == m.size_bytes


def test_reversed_order_charges_fallthrough_jumps():
    m = straightline_module()
    order = original_gid_order(m)[::-1]
    amap = layout_blocks(m, order)
    # every block except the exit block falls through somewhere no longer
    # adjacent: 4 jumps.
    assert amap.added_jumps == 4
    assert amap.total_bytes == m.size_bytes + 4 * INSTRUCTION_BYTES


def test_entry_stubs_charged_per_function():
    m = straightline_module()
    amap = layout_blocks(m, original_gid_order(m), entry_stubs=True)
    assert amap.added_jumps == 1  # one function
    assert amap.total_bytes == m.size_bytes + INSTRUCTION_BYTES


def test_addresses_follow_layout_order():
    m = straightline_module((4, 6, 2))
    order = [2, 0, 1]
    amap = layout_blocks(m, order)
    starts = [int(amap.starts[g]) for g in order]
    assert starts == sorted(starts)
    assert starts[0] == 0
    # block 2 first: size 2 instr = 8 bytes, then block 0 at 8.
    assert int(amap.starts[0]) == int(amap.sizes[2])


def test_rejects_non_permutations():
    m = straightline_module((4, 6, 2))
    with pytest.raises(ValueError):
        layout_blocks(m, [0, 1])
    with pytest.raises(ValueError):
        layout_blocks(m, [0, 1, 1])


def test_span_and_line_span():
    m = straightline_module((16, 16))
    amap = layout_blocks(m, original_gid_order(m))
    start, end = amap.span(1)
    assert (start, end) == (64, 128)
    assert amap.line_span(1, 64) == (1, 1)
    assert amap.line_span(0, 32) == (0, 1)


def test_function_order_gids_appends_missing():
    b = ModuleBuilder("m")
    for name in ("main", "f1", "f2"):
        fb = b.function(name)
        fb.block("e", 2).exit()
    m = b.build()
    gids = function_order_gids(m, ["f2"])
    # f2 first, then main and f1 in declaration order.
    assert gids == [2, 0, 1]
    with pytest.raises(ValueError):
        function_order_gids(m, ["f1", "f1"])


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=2, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_any_permutation_produces_disjoint_dense_image(sizes, seed):
    m = straightline_module(tuple(sizes))
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(m.n_blocks))
    amap = layout_blocks(m, [int(g) for g in order], entry_stubs=bool(seed % 2))
    assert not amap.overlaps()
    # dense: total bytes equals last end.
    assert amap.end == amap.base + int(amap.sizes.sum())
    # every block's span is within the image.
    for g in range(m.n_blocks):
        s, e = amap.span(g)
        assert 0 <= s < e <= amap.end


@st.composite
def branchy_modules(draw):
    """Modules whose blocks fall through every way a terminator can:
    jumps, branches, calls and loops (with a fall-through target) and
    switches, returns and exits (without one)."""
    b = ModuleBuilder("m")
    fnames = ["main", *(f"f{i}" for i in range(draw(st.integers(0, 3))))]
    for fname in fnames:
        names = [f"b{i}" for i in range(draw(st.integers(1, 6)))]
        fb = b.function(fname)
        target = st.sampled_from(names)
        for name in names:
            block = fb.block(name, draw(st.integers(1, 12)))
            op = draw(st.sampled_from(["jump", "branch", "call", "loop", "switch", "ret", "exit"]))
            if op == "jump":
                block.jump(draw(target))
            elif op == "branch":
                block.branch(draw(target), draw(target), 0.5)
            elif op == "call":
                block.call(draw(st.sampled_from(fnames)), return_to=draw(target))
            elif op == "loop":
                block.loop(draw(target), draw(target), trips=2)
            elif op == "switch":
                block.switch([draw(target), draw(target)], [1.0, 1.0])
            elif op == "ret":
                block.ret()
            else:
                block.exit()
    return b.build()


@settings(max_examples=100, deadline=None)
@given(
    module=branchy_modules(),
    seed=st.integers(0, 2**32 - 1),
    entry_stubs=st.booleans(),
    base=st.sampled_from([0, 4, 4096]),
)
def test_layout_blocks_matches_oracle(module, seed, entry_stubs, base):
    """The array form of ``layout_blocks`` gives the object-walking
    oracle's address map for any permutation."""
    from tests.ir.layout_oracle import layout_blocks as oracle_layout_blocks

    order = [int(g) for g in np.random.default_rng(seed).permutation(module.n_blocks)]
    for gids in (order, original_gid_order(module)):
        ours = layout_blocks(module, gids, entry_stubs=entry_stubs, base=base)
        theirs = oracle_layout_blocks(module, gids, entry_stubs=entry_stubs, base=base)
        assert ours.order == theirs.order
        assert ours.added_jumps == theirs.added_jumps
        assert ours.base == theirs.base
        for got, want in ((ours.starts, theirs.starts), (ours.sizes, theirs.sizes)):
            assert got.dtype == want.dtype == np.int64
            assert got.tobytes() == want.tobytes()


def test_layout_blocks_matches_oracle_on_a_suite_program():
    from repro.workloads import build

    from tests.ir.layout_oracle import layout_blocks as oracle_layout_blocks

    _, module = build("syn-gcc")
    rng = np.random.default_rng(3)
    for entry_stubs in (False, True):
        order = rng.permutation(module.n_blocks).tolist()
        ours = layout_blocks(module, order, entry_stubs=entry_stubs)
        theirs = oracle_layout_blocks(module, order, entry_stubs=entry_stubs)
        assert ours.added_jumps == theirs.added_jumps
        assert np.array_equal(ours.starts, theirs.starts)
        assert np.array_equal(ours.sizes, theirs.sizes)
