"""Unit tests for data-access streams (repro.engine.datastream)."""

import numpy as np
import pytest

from repro.engine import InputSpec, collect_trace, fetch_lines, line_spans, merged_stream
from repro.engine.datastream import DATA_SPACE_BASE, SHARED_REGION_BASE
from repro.ir import DataAccess, ModuleBuilder, baseline_layout


def data_module():
    b = ModuleBuilder("dm")
    f = b.function("main")
    f.block("entry", 2).loop("w", "done", trips=50)
    f.block("w", 4, data=DataAccess("stream", 1, region_lines=8)).jump("l")
    f.block("l", 4, data=DataAccess("local", 2, region_lines=4)).jump("s")
    f.block("s", 4, data=DataAccess("shared", 1, region_lines=2)).jump("entry")
    f.block("done", 1).exit()
    g = b.function("other")
    g.block("e", 3, data=DataAccess("local", 1, region_lines=4)).ret()
    return b.build()


def data_lines(trace, module):
    """The data sub-stream of the merged stream, in order."""
    amap = baseline_layout(module).address_map
    lines, is_data = merged_stream(trace, amap, 64, module)
    return lines[is_data]


@pytest.fixture
def dm():
    module = data_module()
    bundle = collect_trace(module, InputSpec("t", seed=0, max_blocks=500))
    return module, bundle


def test_data_mode_validation():
    with pytest.raises(ValueError):
        DataAccess("weird")
    with pytest.raises(ValueError):
        DataAccess("local", 0)


def test_counts_match_descriptors(dm):
    module, bundle = dm
    lines = data_lines(bundle.bb_trace, module)
    per_gid = {b.gid: (b.data.n_lines if b.data else 0) for b in module.iter_blocks()}
    expected = sum(per_gid[g] for g in bundle.bb_trace.tolist())
    assert lines.shape[0] == expected


def test_data_lines_live_in_data_space(dm):
    module, bundle = dm
    lines = data_lines(bundle.bb_trace, module)
    assert (lines >= SHARED_REGION_BASE).all()


def test_stream_advances_and_wraps(dm):
    module, bundle = dm
    lines = data_lines(bundle.bb_trace, module)
    w = module.function("main").block("w")
    # extract w's accesses: occurrences in order, region 8 -> occ % 8.
    mask = np.repeat(
        bundle.bb_trace == w.gid,
        [module.block_by_gid(g).data.n_lines if module.block_by_gid(g).data else 0
         for g in bundle.bb_trace.tolist()],
    )
    w_lines = lines[mask]
    offsets = (w_lines - w_lines.min()).tolist()
    n = len(offsets)
    assert offsets[:8] == list(range(8))[: min(8, n)]
    if n > 8:
        assert offsets[8] == 0  # wrapped


def test_shared_mode_hits_fixed_lines(dm):
    module, bundle = dm
    lines = data_lines(bundle.bb_trace, module)
    shared = lines[lines >= SHARED_REGION_BASE]
    shared = shared[shared < DATA_SPACE_BASE]
    assert len(set(shared.tolist())) == 1  # n_lines=1, fixed


def test_functions_get_disjoint_regions():
    module = data_module()
    bundle_like = np.array(
        [module.function("main").block("l").gid, module.function("other").block("e").gid]
    )
    lines = data_lines(bundle_like, module)
    # main's local region differs from other's.
    assert lines[0] // (1 << 14) != lines[2] // (1 << 14)


def test_merged_stream_interleaves_i_and_d(dm):
    module, bundle = dm
    amap = baseline_layout(module).address_map
    lines, is_data = merged_stream(bundle.bb_trace, amap, 64, module)
    # total = fetch lines + data lines.
    ilines = fetch_lines(bundle.bb_trace, amap, 64)
    assert lines.shape[0] == ilines.shape[0] + int(is_data.sum())
    # the instruction sub-stream is exactly fetch_lines, in order.
    assert np.array_equal(lines[~is_data], ilines)
    # each execution's data lines directly follow its fetch lines.
    n_fetch = line_spans(amap, 64)[1][bundle.bb_trace]
    n_data = [b.data.n_lines if b.data else 0 for b in module.iter_blocks()]
    runs = np.column_stack([n_fetch, np.array(n_data)[bundle.bb_trace]]).ravel()
    expected = np.repeat(np.tile([False, True], bundle.bb_trace.shape[0]), runs)
    assert np.array_equal(is_data, expected)
    # code and data spaces never alias.
    assert lines[~is_data].max() < SHARED_REGION_BASE


def test_blocks_without_descriptors_contribute_nothing(tiny_module, tiny_bundle):
    lines = data_lines(tiny_bundle.bb_trace, tiny_module)
    assert lines.shape[0] == 0
    amap = baseline_layout(tiny_module).address_map
    merged, is_data = merged_stream(tiny_bundle.bb_trace, amap, 64, tiny_module)
    assert not is_data.any()
    assert np.array_equal(merged, fetch_lines(tiny_bundle.bb_trace, amap, 64))
