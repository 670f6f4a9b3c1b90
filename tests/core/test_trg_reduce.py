"""Unit and property tests for TRG reduction (repro.core.trg_reduce).

The Figure 2 instance reconstructs the paper's worked example: edge
weights chosen so the published narrative replays exactly — <A,B> reduced
first, then <E,F> with E taking the empty third slot and F merging with A
(removing E<B,F>), then C merging with E — and the emitted sequence is
``A B E F C`` with slots [A,F], [B], [E,C].
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TRG, build_trg, reduce_trg

A, B, C, E, F = 0, 1, 2, 3, 4


def fig2_trg():
    return TRG.from_weights(
        [A, B, C, E, F],
        {(A, B): 40, (E, F): 31, (C, E): 30, (B, E): 20, (B, F): 15, (A, F): 10},
    )


def test_figure2_slots_and_sequence():
    res = reduce_trg(fig2_trg(), 3)
    assert res.slots == [[A, F], [B], [E, C]]
    assert res.order == [A, B, E, F, C]
    assert res.unconstrained == []


def test_single_slot_emits_by_edge_order():
    res = reduce_trg(fig2_trg(), 1)
    # everything lands in the one slot; emission order = placement order.
    assert sorted(res.order) == [A, B, C, E, F]
    assert res.order[0] == A
    assert res.order[1] == B


def test_isolated_nodes_appended():
    trg = TRG.from_weights([1, 2, 3, 4], {(1, 2): 5})
    res = reduce_trg(trg, 2)
    assert sorted(res.order) == [1, 2, 3, 4]
    assert set(res.unconstrained) == {3, 4}


def test_empty_graph():
    trg = TRG.from_weights([7, 8], {})
    res = reduce_trg(trg, 3)
    assert sorted(res.order) == [7, 8]
    assert set(res.unconstrained) == {7, 8}


def test_tie_on_node_pair_decides_first_empty_slot():
    """Equal-weight edges are taken by ascending node pair: <1,2> comes
    before <3,4>, so 2 takes the last empty slot and 4 joins 3."""
    trg = TRG.from_weights([1, 2, 3, 4], {(1, 2): 5, (3, 4): 5, (1, 3): 9})
    assert trg.n_edges == 3
    res = reduce_trg(trg, 3)
    assert res.slots == [[1], [3, 4], [2]]
    assert res.order == [1, 3, 2, 4]


def test_reduction_insertion_order_invariant():
    """The result depends only on the edge *set*, never on the order of
    the edge rows it is handed."""
    conflicts = [(1, 2, 5), (3, 4, 5), (1, 3, 9), (2, 4, 5), (1, 4, 1)]
    results = set()
    rng = random.Random(42)
    orders = list(itertools.permutations(conflicts))
    rng.shuffle(orders)
    for perm in orders[:24]:
        trg = TRG([1, 2, 3, 4], [c[:2] for c in perm], [c[2] for c in perm])
        res = reduce_trg(trg, 2)
        results.add((tuple(res.order), tuple(map(tuple, res.slots))))
    assert len(results) == 1


def test_slot_validation():
    with pytest.raises(ValueError):
        reduce_trg(fig2_trg(), 0)


@settings(max_examples=60, deadline=None)
@given(
    trace=st.lists(st.integers(0, 9), min_size=1, max_size=120),
    n_slots=st.integers(1, 6),
)
def test_every_block_emitted_exactly_once(trace, n_slots):
    trg = build_trg(np.array(trace, dtype=np.int64))
    res = reduce_trg(trg, n_slots)
    assert sorted(res.order) == sorted(set(trace))


@settings(max_examples=40, deadline=None)
@given(
    trace=st.lists(st.integers(0, 7), min_size=2, max_size=80),
    n_slots=st.integers(1, 4),
)
def test_reduction_deterministic(trace, n_slots):
    t = np.array(trace, dtype=np.int64)
    r1 = reduce_trg(build_trg(t), n_slots)
    r2 = reduce_trg(build_trg(t), n_slots)
    assert r1.order == r2.order
    assert r1.slots == r2.slots
