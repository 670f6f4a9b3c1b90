"""Unit tests for TRG construction (repro.core.trg)."""

import numpy as np
import pytest

from repro.cache import PAPER_L1I
from repro.core import TRG, build_trg, trg_window_blocks, uniform_block_slots


def test_simple_interleaving_counts():
    # a b a: one reuse of a interleaved by b -> w(a,b) = 1.
    trg = build_trg(np.array([1, 2, 1]))
    assert trg.weight(1, 2) == 1
    # symmetric lookup.
    assert trg.weight(2, 1) == 1


def test_repeated_interleavings_accumulate():
    # a b a b a: reuses of a see b twice; reuses of b see a once.
    trg = build_trg(np.array([1, 2, 1, 2, 1]))
    assert trg.weight(1, 2) == 3


def test_multiple_distinct_interleavers():
    # a b c a: a's reuse is interleaved by both b and c.
    trg = build_trg(np.array([1, 2, 3, 1]))
    assert trg.weight(1, 2) == 1
    assert trg.weight(1, 3) == 1
    assert trg.weight(2, 3) == 0


def test_trimming_applied():
    trg = build_trg(np.array([1, 1, 2, 2, 1, 1]))
    assert trg.weight(1, 2) == 1


def test_window_bound_drops_long_reuses():
    # with a window of 2 blocks, a's reuse across {b, c} is beyond reach.
    t = np.array([1, 2, 3, 1])
    unbounded = build_trg(t)
    bounded = build_trg(t, window_blocks=2)
    assert unbounded.weight(1, 2) == 1
    assert bounded.weight(1, 2) == 0
    assert bounded.weight(1, 3) == 0


def test_nodes_in_first_occurrence_order():
    trg = build_trg(np.array([5, 2, 5, 9]))
    assert trg.nodes == [5, 2, 9]


def test_window_blocks_and_slots_paper_config():
    # uniform block size 256B: window = 2*32768/256 = 256 blocks.
    assert trg_window_blocks(PAPER_L1I, 256) == 256
    # slots: sets=128 chunks of 256B; block occupies ceil(256/256)=1 -> 128.
    assert uniform_block_slots(PAPER_L1I, 256) == 128
    # a 1KB block occupies 4 set-chunks -> 32 slots.
    assert uniform_block_slots(PAPER_L1I, 1024) == 32


def test_size_validation():
    with pytest.raises(ValueError):
        trg_window_blocks(PAPER_L1I, 0)
    with pytest.raises(ValueError):
        uniform_block_slots(PAPER_L1I, -1)


def test_add_conflict_rejects_nonpositive_amount():
    """Regression (ISSUE 5 satellite): a zero or negative amount would
    silently corrupt edge weights under batched accumulation."""
    trg = TRG()
    with pytest.raises(ValueError):
        trg.add_conflict(1, 2, 0)
    with pytest.raises(ValueError):
        trg.add_conflict(1, 2, -3)
    assert trg.weights == {}  # nothing recorded by the failed calls
    trg.add_conflict(1, 2, 2)
    assert trg.weight(1, 2) == 2

