"""Unit tests for CFG queries (repro.ir.cfg) and the successor and
fall-through columns of the execution table they read."""

from repro.ir import ModuleBuilder
from repro.ir.cfg import call_graph, intra_successors, static_call_sites


def make_module():
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


def test_intra_successors_include_return_to_not_callee():
    m = make_module()
    work = m.function("main").block("work")
    succ_names = [blk.name for blk in intra_successors(m, work)]
    assert succ_names == ["entry"]


def test_successor_gids_include_call_edges():
    m = make_module()
    table = m.exec_table
    work = m.function("main").block("work")
    helper_entry = m.function("helper").entry
    succs = table.succ_idx[table.succ_ptr[work.gid]:table.succ_ptr[work.gid + 1]]
    assert succs.tolist() == [m.function("main").block("entry").gid, helper_entry.gid]


def test_reachability_excludes_orphan_and_dead():
    m = make_module()
    reach = set(m.exec_table.reachable().nonzero()[0].tolist())
    orphan = m.function("main").block("orphan")
    dead = m.function("dead").entry
    assert orphan.gid not in reach
    assert dead.gid not in reach
    assert m.function("leafy").entry.gid in reach


def test_call_graph_and_sites():
    m = make_module()
    cg = call_graph(m)
    assert cg["main"] == {"helper"}
    assert cg["helper"] == {"leafy"}
    assert cg["leafy"] == set()
    sites = static_call_sites(m, "helper")
    assert [s.name for s in sites] == ["work"]


def test_fallthrough_pairs():
    m = make_module()
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
