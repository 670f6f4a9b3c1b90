"""Unit and property tests for the fetch model (repro.engine.fetch)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import fetch_lines, line_spans
from repro.ir import ModuleBuilder, baseline_layout


def chain_module(sizes):
    b = ModuleBuilder("m")
    f = b.function("main")
    names = [f"b{i}" for i in range(len(sizes))]
    for i, n in enumerate(sizes):
        if i + 1 < len(sizes):
            f.block(names[i], n).jump(names[i + 1])
        else:
            f.block(names[i], n).exit()
    return b.build()


def test_line_expansion_exact():
    # block0: 16 instr = 64B = line 0; block1: 24 instr = 96B spans lines 1-2.
    m = chain_module([16, 24])
    amap = baseline_layout(m).address_map
    trace = np.array([0, 1, 0])
    lines = fetch_lines(trace, amap, 64)
    assert lines.tolist() == [0, 1, 2, 0]


def test_sub_line_blocks_share_lines():
    m = chain_module([4, 4, 4, 4])  # 16B each, four per 64B line
    amap = baseline_layout(m).address_map
    lines = fetch_lines(np.array([0, 1, 2, 3]), amap, 64)
    assert lines.tolist() == [0, 0, 0, 0]


def test_straddling_block():
    m = chain_module([8, 16])  # block1 at byte 32..96: lines 0 and 1
    amap = baseline_layout(m).address_map
    lines = fetch_lines(np.array([1]), amap, 64)
    assert lines.tolist() == [0, 1]


def test_empty_trace():
    m = chain_module([4])
    amap = baseline_layout(m).address_map
    assert fetch_lines(np.empty(0, dtype=np.int64), amap, 64).shape == (0,)


def test_rejects_bad_line_size():
    m = chain_module([4])
    amap = baseline_layout(m).address_map
    with pytest.raises(ValueError):
        line_spans(amap, 48)
    with pytest.raises(ValueError):
        line_spans(amap, 0)


def test_rejects_multidim_trace():
    m = chain_module([4])
    amap = baseline_layout(m).address_map
    with pytest.raises(ValueError):
        fetch_lines(np.zeros((2, 2), dtype=np.int64), amap, 64)


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    trace=st.lists(st.integers(0, 5), min_size=0, max_size=50),
    line_bytes=st.sampled_from([16, 32, 64, 128]),
)
def test_expansion_matches_reference(sizes, trace, line_bytes):
    m = chain_module(sizes)
    amap = baseline_layout(m).address_map
    t = np.array([g % len(sizes) for g in trace], dtype=np.int64)
    lines = fetch_lines(t, amap, line_bytes)
    assert lines.shape[0] == line_spans(amap, line_bytes)[1][t].sum()
    # reference: per execution, lines from start to end.
    expected = []
    for g in t.tolist():
        start, end = amap.span(g)
        expected.extend(range(start // line_bytes, (end - 1) // line_bytes + 1))
    assert lines.tolist() == expected
