"""Static frequency estimation: heuristics, Markov solve, interprocedural."""

import numpy as np
import pytest

from repro.ir import (
    BasicBlock,
    Branch,
    Exit,
    Function,
    Jump,
    Module,
    Switch,
)
from repro.staticlint.dataflow import FunctionCFG
from repro.staticlint.frequency import (
    FrequencyConfig,
    edge_probabilities,
    estimate_frequencies,
)


def gid(module, func, name):
    return next(
        b.gid for b in module.iter_blocks() if b.func == func and b.name == name
    )


# -- edge heuristics ----------------------------------------------------------


def test_loopbranch_trip_count_gives_exact_split(diamond):
    cfg = FunctionCFG(diamond.function("main"))
    probs = edge_probabilities(cfg, FrequencyConfig())
    body = cfg.index["body"]
    done = cfg.index["done"]
    # trips=3: stay 2/3, exit 1/3 — exact, not heuristic.
    assert probs[body][body] == pytest.approx(2 / 3)
    assert probs[body][done] == pytest.approx(1 / 3)


def test_fallthrough_heuristic_prefers_else_side(diamond):
    cfg = FunctionCFG(diamond.function("main"))
    probs = edge_probabilities(cfg, FrequencyConfig())
    entry = cfg.index["entry"]
    # No loop/exit signal on either arm: fall-through (orelse) gets 0.7.
    assert probs[entry][cfg.index["left"]] == pytest.approx(0.3)
    assert probs[entry][cfg.index["right"]] == pytest.approx(0.7)


def test_backedge_heuristic():
    main = Function(
        "main",
        [
            BasicBlock("entry", 4, Jump("head")),
            BasicBlock("head", 4, Branch("head", "out", taken_prob=0.5)),
            BasicBlock("out", 4, Exit()),
        ],
    )
    m = Module("be", [main], entry="main").seal()
    cfg = FunctionCFG(m.function("main"))
    probs = edge_probabilities(cfg, FrequencyConfig())
    head = cfg.index["head"]
    assert probs[head][head] == pytest.approx(0.88)
    assert probs[head][cfg.index["out"]] == pytest.approx(0.12)
    # Markov: expected head visits = 1 / (1 - 0.88).
    profile = estimate_frequencies(m)
    assert profile.block_freq[gid(m, "main", "head")] == pytest.approx(1 / 0.12)


def test_exit_avoidance_heuristic():
    main = Function(
        "main",
        [
            BasicBlock("entry", 4, Branch("cont", "halt", taken_prob=0.5)),
            BasicBlock("cont", 4, Jump("halt")),
            BasicBlock("halt", 4, Exit()),
        ],
    )
    m = Module("noexit", [main], entry="main").seal()
    cfg = FunctionCFG(m.function("main"))
    probs = edge_probabilities(cfg, FrequencyConfig())
    entry = cfg.index["entry"]
    assert probs[entry][cfg.index["cont"]] == pytest.approx(0.9)
    assert probs[entry][cfg.index["halt"]] == pytest.approx(0.1)


def test_switch_is_uniform_over_case_slots():
    main = Function(
        "main",
        [
            BasicBlock("entry", 4, Switch(("a", "a", "b"), (100.0, 1.0, 1.0))),
            BasicBlock("a", 4, Exit()),
            BasicBlock("b", 4, Exit()),
        ],
    )
    m = Module("sw", [main], entry="main").seal()
    cfg = FunctionCFG(m.function("main"))
    probs = edge_probabilities(cfg, FrequencyConfig())
    entry = cfg.index["entry"]
    # A target listed twice gets 2/3 regardless of the runtime weights.
    assert probs[entry][cfg.index["a"]] == pytest.approx(2 / 3)
    assert probs[entry][cfg.index["b"]] == pytest.approx(1 / 3)


def _branchy(taken_prob, weights):
    main = Function(
        "main",
        [
            BasicBlock("entry", 4, Branch("sw", "side", taken_prob=taken_prob)),
            BasicBlock("side", 4, Jump("sw")),
            BasicBlock("sw", 4, Switch(("x", "y"), weights)),
            BasicBlock("x", 4, Exit()),
            BasicBlock("y", 4, Exit()),
        ],
    )
    return Module("rt", [main], entry="main").seal()


def test_runtime_profile_fields_are_never_read():
    a = estimate_frequencies(_branchy(0.01, (9.0, 1.0)))
    b = estimate_frequencies(_branchy(0.99, (1.0, 9.0)))
    assert np.array_equal(a.block_freq, b.block_freq)


# -- Markov solve -------------------------------------------------------------


def test_diamond_frequencies_match_hand_computation(diamond):
    profile = estimate_frequencies(diamond)
    f = profile.block_freq
    assert f[gid(diamond, "main", "entry")] == pytest.approx(1.0)
    assert f[gid(diamond, "main", "left")] == pytest.approx(0.3)
    assert f[gid(diamond, "main", "right")] == pytest.approx(0.7)
    assert f[gid(diamond, "main", "join")] == pytest.approx(1.0)
    # trips=3 self-loop: expected visits = 1 / (1/3) = 3.
    assert f[gid(diamond, "main", "body")] == pytest.approx(3.0)
    assert f[gid(diamond, "main", "done")] == pytest.approx(1.0)


def test_inescapable_cycle_survives_via_damping():
    main = Function(
        "main",
        [
            BasicBlock("entry", 4, Jump("spin")),
            BasicBlock("spin", 4, Jump("entry")),
        ],
    )
    m = Module("spin", [main], entry="main").seal()
    profile = estimate_frequencies(m)
    assert np.all(np.isfinite(profile.block_freq))
    assert np.all(profile.block_freq >= 0.0)
    assert profile.block_freq.max() > 0.0


# -- interprocedural propagation ----------------------------------------------


def test_call_chain_propagates_entry_counts(chain):
    profile = estimate_frequencies(chain)
    assert profile.func_freq["main"] == pytest.approx(1.0)
    # main calls helper at two sites, each executed once.
    assert profile.func_freq["helper"] == pytest.approx(2.0)
    assert profile.func_freq["leaf"] == pytest.approx(2.0)
    # Unreachable functions are cold.
    assert profile.func_freq["cold"] == 0.0
    assert profile.block_freq[gid(chain, "cold", "entry")] == 0.0
    assert profile.block_freq[gid(chain, "helper", "out")] == pytest.approx(2.0)


def test_recursive_scc_converges_finite(recursive):
    profile = estimate_frequencies(recursive)
    assert np.all(np.isfinite(profile.block_freq))
    assert profile.func_freq["a"] >= 1.0
    assert profile.func_freq["b"] > 0.0
    assert profile.func_freq["a"] <= profile.config.max_function_freq


def test_call_site_freq_reports_call_blocks_only(chain):
    profile = estimate_frequencies(chain)
    sites = profile.call_site_freq()
    expected = {
        gid(chain, "main", "entry"): 1.0,
        gid(chain, "main", "mid"): 1.0,
        gid(chain, "helper", "entry"): 2.0,
    }
    assert set(sites) == set(expected)
    for g, v in expected.items():
        assert sites[g] == pytest.approx(v)


# -- StaticProfile projections ------------------------------------------------


def test_weight_normalises_to_one(diamond):
    w = estimate_frequencies(diamond).weight()
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w >= 0.0)


def test_hot_gids_coverage_prefix(diamond):
    profile = estimate_frequencies(diamond)
    # Total 7: body(3) alone covers 3 < 3.5, so 0.5 coverage needs 2 blocks.
    half = profile.hot_gids(0.5)
    assert half == [
        gid(diamond, "main", "body"),
        gid(diamond, "main", "entry"),
    ]
    # 0.9 coverage (6.3 of 7) excludes only the coldest arm.
    hot = profile.hot_gids(0.9)
    assert gid(diamond, "main", "left") not in hot
    assert len(hot) == 5
    # Full coverage includes everything with nonzero frequency.
    assert len(profile.hot_gids(1.0)) == 6
