"""Unit tests for the execution table (repro.ir.exectable)."""

import numpy as np
import pytest

from repro.ir import BasicBlock, Exit, Function, Jump, Module, ModuleBuilder, Return
from repro.ir.exectable import K_BRANCH, K_CALL, K_EXIT, K_JUMP, K_RET, K_SWITCH


def two_function_module():
    b = ModuleBuilder("m")
    f = b.function("main")
    f.block("entry", 2).branch("work", "done", 0.5)
    f.block("work", 3).call("leaf", return_to="entry")
    f.block("done", 1).exit()
    g = b.function("leaf")
    g.block("e", 4).switch(["x", "y", "x"], [1.0, 2.0, 1.0])
    g.block("x", 5).jump("y")
    g.block("y", 6).ret()
    return b.build()


def test_columns_follow_the_blocks():
    m = two_function_module()
    table = m.exec_table
    assert table.n_blocks == m.n_blocks == 6
    assert table.kind == [K_BRANCH, K_CALL, K_EXIT, K_SWITCH, K_JUMP, K_RET]
    assert table.n_instr.tolist() == [b.n_instr for b in m.iter_blocks()]
    assert table.func_index.tolist() == [0, 0, 0, 1, 1, 1]
    assert table.entry_gids.tolist() == [0, 3]
    assert table.start == 0
    # call: callee entry in op_a, return-to in op_b.
    assert (table.op_a[1], table.op_b[1]) == (3, 0)
    assert table.sw_targets == {3: (4, 5, 4)}
    assert table.sw_cum == {3: [0.25, 0.75, 1.0]}
    for array in (table.n_instr, table.fallthrough, table.succ_idx):
        assert not array.flags.writeable


def test_reachability_over_the_csr():
    b = ModuleBuilder("m")
    f = b.function("main")
    f.block("e", 1).call("used", return_to="out")
    f.block("out", 1).exit()
    f.block("island", 1).jump("out")
    b.function("used").block("e", 1).ret()
    b.function("unused").block("e", 1).ret()
    m = b.build(validate=False)
    assert m.exec_table.reachable().tolist() == [True, True, False, True, False]


def test_table_is_built_once_and_dropped_by_seal():
    m = two_function_module()
    table = m.exec_table
    assert m.exec_table is table
    m.seal()
    assert m.exec_table is not table


def test_resealing_a_mutated_module_rebuilds_the_table():
    m = two_function_module()
    before = m.exec_table
    assert before.kind[4] == K_JUMP
    # Mutate a terminator and append a block, then re-seal.
    m.function("leaf").block("x").terminator = Return()
    m.function("main").blocks.append(BasicBlock("tail", 7, Exit()))
    m._sealed = False
    m.seal()
    after = m.exec_table
    assert after is not before
    assert after.n_blocks == 7
    # main:tail took gid 3, so leaf:x moved from gid 4 to 5.
    assert after.n_instr[3] == 7
    assert after.kind[5] == K_RET
    assert after.fallthrough[5] == -1
    assert after.entry_gids.tolist() == [0, 4]


def test_unknown_terminator_raises_when_the_table_is_built():
    class Weird:
        pass

    m = Module("m", [Function("main", [BasicBlock("e", 1, Exit())])]).seal()
    m.function("main").block("e").terminator = Weird()
    m.seal()
    with pytest.raises(TypeError, match="unknown terminator"):
        m.exec_table


def test_unknown_target_is_a_key_error_not_built_by_seal():
    # Sealing never builds the table, so a module with a dangling target
    # seals fine; the verifier reports it before reachability needs the
    # table, and building the table directly raises KeyError.
    m = Module("m", [Function("main", [BasicBlock("e", 1, Jump("missing"))])]).seal()
    with pytest.raises(KeyError):
        m.exec_table


def test_unsealed_module_has_no_table():
    m = Module("m", [Function("main", [BasicBlock("e", 1, Exit())])])
    with pytest.raises(RuntimeError):
        m.exec_table
    assert np.array_equal(m.seal().exec_table.fallthrough, [-1])


def call_chain_module():
    b = ModuleBuilder("m")
    f = b.function("main")
    f.block("entry", 1).branch("work", "done", 0.9)
    f.block("work", 2).call("helper", return_to="entry")
    f.block("done", 1).exit()
    f.block("orphan", 3).jump("done")  # deliberately unreachable
    g = b.function("helper")
    g.block("e", 1).call("leafy", return_to="out")
    g.block("out", 1).ret()
    h = b.function("leafy")
    h.block("e", 2).ret()
    b.function("dead").block("e", 1).ret()  # never called
    return b.build()


def test_successor_gids_include_call_edges():
    m = call_chain_module()
    table = m.exec_table
    work = m.function("main").block("work")
    helper_entry = m.function("helper").entry
    succs = table.succ_idx[table.succ_ptr[work.gid]:table.succ_ptr[work.gid + 1]]
    assert succs.tolist() == [m.function("main").block("entry").gid, helper_entry.gid]


def test_reachability_excludes_orphan_and_dead():
    m = call_chain_module()
    reach = set(m.exec_table.reachable().nonzero()[0].tolist())
    orphan = m.function("main").block("orphan")
    dead = m.function("dead").entry
    assert orphan.gid not in reach
    assert dead.gid not in reach
    assert m.function("leafy").entry.gid in reach


def test_fallthrough_pairs():
    m = call_chain_module()
    fallthrough = m.exec_table.fallthrough
    entry = m.function("main").entry
    work = m.function("main").block("work")
    done = m.function("main").block("done")
    # branch falls through to its else side, a call to its return-to block.
    assert fallthrough[entry.gid] == done.gid
    assert fallthrough[work.gid] == entry.gid
    # exit/ret blocks have no fallthrough.
    assert fallthrough[done.gid] == -1
    assert fallthrough[m.function("helper").block("out").gid] == -1
