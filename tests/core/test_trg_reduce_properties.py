"""Property tests: the one-pass TRG reduction against the supernode oracle.

``reduce_trg`` takes the edges once, heaviest first, and keeps the merged
slot weights in a dense slot-by-node matrix; ``reduce_trg_reference``
runs the paper's Algorithm 2 literally with a lazy heap over union-find
supernodes.  ``order``, ``slots`` and ``unconstrained`` must be equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TRG, build_trg, reduce_trg
from repro.core.layout import Granularity
from repro.core.optimizers import OptimizerConfig, _prepare_trace, _uniform_size
from repro.core.trg import trg_window_blocks, uniform_block_slots
from repro.engine import collect_trace
from repro.workloads import SUITE, build

from .trg_reduce_oracle import reduce_trg_reference


def assert_same_reduction(trg, n_slots):
    got, want = reduce_trg(trg, n_slots), reduce_trg_reference(trg, n_slots)
    assert got.order == want.order
    assert got.slots == want.slots
    assert got.unconstrained == want.unconstrained


@st.composite
def weighted_trgs(draw, max_nodes=14):
    """Random node ids (some isolated) with few distinct weights, so ties
    are common."""
    nodes = draw(st.lists(st.integers(-20, 60), max_size=max_nodes, unique=True))
    weight = st.integers(1, draw(st.sampled_from([1, 2, 3, 50])))
    weights = {
        (x, y): draw(weight)
        for x in nodes
        for y in nodes
        if x < y and draw(st.booleans())
    }
    return TRG.from_weights(nodes, weights)


@settings(max_examples=300, deadline=None)
@given(trg=weighted_trgs(), n_slots=st.integers(1, 8))
def test_random_weighted_trg_equals_oracle(trg, n_slots):
    assert_same_reduction(trg, n_slots)


@settings(max_examples=150, deadline=None)
@given(
    trace=st.lists(st.integers(0, 15), min_size=1, max_size=200),
    window=st.none() | st.integers(1, 10),
    n_slots=st.integers(1, 8),
)
def test_built_trg_equals_oracle(trace, window, n_slots):
    assert_same_reduction(build_trg(np.array(trace, dtype=np.int64), window), n_slots)


@settings(max_examples=60, deadline=None)
@given(trg=weighted_trgs(), n_slots=st.integers(1, 8))
def test_reduction_leaves_trg_unchanged(trg, n_slots):
    before = TRG(trg.nodes.copy(), trg.edges.copy(), trg.weights.copy())
    reduce_trg(trg, n_slots)
    assert trg == before


@pytest.mark.parametrize("granularity", [Granularity.BASIC_BLOCK, Granularity.FUNCTION])
@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_reduction_equals_oracle(name, granularity):
    """The TRG and slot count the TRG optimizer builds for each program."""
    config = OptimizerConfig()
    prog, module = build(name, ref_blocks=10_000, test_blocks=2_000)
    bundle = collect_trace(module, prog.spec.test_input())
    size = _uniform_size(module, bundle, granularity)
    trace = _prepare_trace(bundle, granularity, config)
    trg = build_trg(trace, trg_window_blocks(config.cache, size, config.trg_window_factor))
    assert_same_reduction(trg, uniform_block_slots(config.cache, size))
