"""Edge-case interpreter tests: recursion, degenerate programs, budgets."""

from repro.engine import InputSpec, run
from repro.ir import ModuleBuilder


def test_direct_recursion_bounded_by_budget():
    b = ModuleBuilder("rec")
    f = b.function("main")
    f.block("entry", 1).branch("dive", "out", taken_prob=0.9)
    f.block("dive", 1).call("main", return_to="out")
    f.block("out", 1).ret()
    m = b.build()
    res = run(m, InputSpec("t", seed=5, max_blocks=10_000))
    # recursion terminates either naturally (root return) or by budget.
    assert 0 < res.n_blocks <= 10_000


def test_recursive_loop_counters_are_per_frame():
    # each recursive activation gets fresh loop counters.
    b = ModuleBuilder("recloop")
    f = b.function("main")
    f.block("entry", 1).loop("body", "done", trips=3)
    f.block("body", 1).branch("recurse", "entry", taken_prob=0.5)
    f.block("recurse", 1).call("main", return_to="entry")
    f.block("done", 1).ret()
    m = b.build()
    res = run(m, InputSpec("t", seed=1, max_blocks=5_000))
    entry = m.function("main").entry.gid
    done = m.function("main").block("done").gid
    trace = res.bb_trace.tolist()
    # every completed activation executed 'entry' exactly 3 times.
    assert trace.count(done) >= 1
    assert trace.count(entry) >= 3 * trace.count(done)


def test_immediate_exit_program():
    b = ModuleBuilder("null")
    b.function("main").block("entry", 1).exit()
    m = b.build()
    res = run(m, InputSpec("t", seed=0, max_blocks=100))
    assert res.n_blocks == 1
    assert res.instr_count == 1
    assert res.natural_exit


def test_root_return_terminates():
    b = ModuleBuilder("retmain")
    b.function("main").block("entry", 2).ret()
    m = b.build()
    res = run(m, InputSpec("t", seed=0, max_blocks=100))
    assert res.n_blocks == 1
    assert res.natural_exit


def test_single_target_switch():
    b = ModuleBuilder("sw1")
    f = b.function("main")
    f.block("entry", 1).loop("sel", "done", trips=10)
    f.block("sel", 1).switch(["back"], [1.0])
    f.block("back", 1).jump("entry")
    f.block("done", 1).exit()
    m = b.build()
    res = run(m, InputSpec("t", seed=9, max_blocks=1000))
    assert res.natural_exit
    back = m.function("main").block("back").gid
    assert res.bb_trace.tolist().count(back) == 9


def test_budget_of_one():
    b = ModuleBuilder("one")
    f = b.function("main")
    f.block("entry", 7).jump("entry")
    m = b.build()
    res = run(m, InputSpec("t", seed=0, max_blocks=1))
    assert res.n_blocks == 1
    assert res.instr_count == 7
    assert not res.natural_exit


def test_mutual_recursion():
    b = ModuleBuilder("mutual")
    f = b.function("main")
    f.block("entry", 1).call("ping", return_to="out")
    f.block("out", 1).exit()
    g = b.function("ping")
    g.block("e", 1).branch("go", "stop", taken_prob=0.8)
    g.block("go", 1).call("pong", return_to="stop")
    g.block("stop", 1).ret()
    h = b.function("pong")
    h.block("e", 1).branch("go", "stop", taken_prob=0.8)
    h.block("go", 1).call("ping", return_to="stop")
    h.block("stop", 1).ret()
    m = b.build()
    res = run(m, InputSpec("t", seed=3, max_blocks=50_000))
    gids = set(res.bb_trace.tolist())
    assert m.function("ping").entry.gid in gids
    assert m.function("pong").entry.gid in gids
    # calls and returns stay balanced: trace ends back in main if natural.
    if res.natural_exit:
        assert res.bb_trace[-1] == m.function("main").block("out").gid
