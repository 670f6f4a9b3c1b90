"""Per-rule unit tests on hand-built modules with known, planted defects."""

import pytest

from repro.ir import (
    AddressMap,
    BasicBlock,
    Branch,
    Exit,
    Function,
    Module,
    Return,
    baseline_layout,
    layout_blocks,
)
from repro.ir.codegen import place_blocks
from repro.lint import LintConfig, Severity, run_lint
from repro.lint.integrity import audit_address_map, audit_gid_order

from .conftest import TINY_CACHE, leaf_module, make_bundle


def lint(module, amap, trace, config=None):
    return run_lint(module, amap, make_bundle(module, trace), TINY_CACHE, config)


# -- L001 set-conflict-hotspot ----------------------------------------------


def test_conflict_flags_hot_lines_piled_on_one_set():
    m = leaf_module(4)  # four 64B blocks
    # Byte stride 512 = 8 lines = the full set cycle: all four land in set 0.
    amap = place_blocks(m, {0: 0, 1: 512, 2: 1024, 3: 1536})
    report = lint(m, amap, [0, 1, 2, 3] * 10)
    diags = [d for d in report.by_rule("L001") if d.severity is Severity.WARNING]
    assert len(diags) == 1
    d = diags[0]
    assert d.location == "set 0"
    assert d.measured["hot_lines"] == 4
    assert d.measured["assoc"] == 2
    # two victim lines at 10 fetches each.
    assert d.measured["victim_fetches"] == 20
    assert report.metrics["L001"]["conflict_score"] == pytest.approx(20 / 40)


def test_conflict_clean_when_hot_lines_spread_over_sets():
    m = leaf_module(4)
    amap = place_blocks(m, {0: 0, 1: 64, 2: 128, 3: 192})  # sets 0..3
    report = lint(m, amap, [0, 1, 2, 3] * 10)
    assert report.by_rule("L001") == []
    assert report.metrics["L001"]["conflict_score"] == 0.0


# -- L002 broken-fallthrough -------------------------------------------------


def _branchy():
    blocks = [
        BasicBlock("entry", 4, Branch("a", "b", taken_prob=0.5)),
        BasicBlock("a", 4, Return()),
        BasicBlock("b", 4, Exit()),
    ]
    return Module("ft", [Function("main", blocks)], entry="main").seal()


def test_broken_fallthrough_flagged_for_hot_block():
    m = _branchy()
    gid = {b.name: b.gid for b in m.iter_blocks()}
    # declaration order entry,a,b: entry's fall-through (b) is NOT adjacent.
    amap = layout_blocks(m, [gid["entry"], gid["a"], gid["b"]])
    report = lint(m, amap, [gid["entry"], gid["b"]] * 10)
    diags = [d for d in report.by_rule("L002") if d.severity is Severity.WARNING]
    assert [d.location for d in diags] == ["main:entry"]
    assert diags[0].measured["executions"] == 10
    assert report.metrics["L002"]["dynamic_added_jumps"] == 10
    assert report.metrics["L002"]["n_broken_hot"] == 1


def test_broken_fallthrough_clean_when_adjacent():
    m = _branchy()
    gid = {b.name: b.gid for b in m.iter_blocks()}
    amap = layout_blocks(m, [gid["entry"], gid["b"], gid["a"]])
    report = lint(m, amap, [gid["entry"], gid["b"]] * 10)
    assert report.by_rule("L002") == []
    assert report.metrics["L002"]["n_broken_total"] == 0


def test_broken_fallthrough_cold_blocks_counted_not_reported():
    m = _branchy()
    gid = {b.name: b.gid for b in m.iter_blocks()}
    amap = layout_blocks(m, [gid["entry"], gid["a"], gid["b"]])
    # entry never executes -> broken fall-through exists but is cold.
    report = lint(m, amap, [gid["a"], gid["b"]] * 10)
    assert report.by_rule("L002") == []
    assert report.metrics["L002"]["n_broken_total"] == 1
    assert report.metrics["L002"]["n_broken_hot"] == 0


# -- L003 hot-cold-interleaving ----------------------------------------------


def _hot_cold_module():
    blocks = [
        BasicBlock("h1", 16, Exit()),
        BasicBlock("cold", 4, Return()),  # 16B pocket
        BasicBlock("h2", 16, Return()),
    ]
    return Module("hc", [Function("main", blocks)], entry="main").seal()


def test_interleaved_cold_pocket_flagged():
    m = _hot_cold_module()
    gid = {b.name: b.gid for b in m.iter_blocks()}
    amap = layout_blocks(m, [gid["h1"], gid["cold"], gid["h2"]])
    report = lint(m, amap, [gid["h1"], gid["h2"]] * 10)
    diags = report.by_rule("L003")
    assert len(diags) == 1
    assert diags[0].location == "main:cold"
    assert diags[0].measured["cold_bytes"] == 16
    assert diags[0].measured["prev_hot"] == "main:h1"
    assert diags[0].measured["next_hot"] == "main:h2"


def test_cold_tail_not_flagged():
    m = _hot_cold_module()
    gid = {b.name: b.gid for b in m.iter_blocks()}
    amap = layout_blocks(m, [gid["h1"], gid["h2"], gid["cold"]])
    report = lint(m, amap, [gid["h1"], gid["h2"]] * 10)
    assert report.by_rule("L003") == []


def test_long_cold_run_not_flagged():
    # A cold run of >= interleave_max_cold_lines lines separates two hot
    # regions instead of polluting one.
    blocks = [
        BasicBlock("h1", 16, Exit()),
        BasicBlock("cold", 40, Return()),  # 160B > 2 lines
        BasicBlock("h2", 16, Return()),
    ]
    m = Module("hc2", [Function("main", blocks)], entry="main").seal()
    gid = {b.name: b.gid for b in m.iter_blocks()}
    amap = layout_blocks(m, [gid["h1"], gid["cold"], gid["h2"]])
    report = lint(m, amap, [gid["h1"], gid["h2"]] * 10)
    assert report.by_rule("L003") == []


# -- L004 line-utilization ---------------------------------------------------


def test_fragmented_hot_line_reported():
    m = leaf_module(3, n_instr=4)  # 16B blocks
    # hot block 0 at line 0; cold blocks parked far away on their own lines.
    amap = place_blocks(m, {0: 0, 1: 256, 2: 320})
    report = lint(m, amap, [0] * 10)
    headline = [d for d in report.by_rule("L004") if d.severity is Severity.WARNING]
    assert len(headline) == 1
    assert headline[0].measured["n_fragmented"] == 1
    details = [d for d in report.by_rule("L004") if d.severity is Severity.INFO]
    assert details and details[0].location == "line 0"
    assert details[0].measured["utilization"] == pytest.approx(16 / 64)
    assert report.metrics["L004"]["mean_utilization"] == pytest.approx(0.25)


def test_fully_packed_lines_are_clean():
    m = leaf_module(2, n_instr=16)  # 64B blocks fill their lines exactly
    amap = place_blocks(m, {0: 0, 1: 64})
    report = lint(m, amap, [0, 1] * 10)
    assert report.by_rule("L004") == []
    assert report.metrics["L004"]["mean_utilization"] == pytest.approx(1.0)


# -- L005 footprint-over-capacity --------------------------------------------


def test_footprint_over_capacity_warns():
    m = leaf_module(20)  # 20 x 64B = 20 lines > 16-line capacity
    report = lint(
        m,
        baseline_layout(m).address_map,
        list(range(20)) * 4,
        LintConfig(hot_coverage=1.0),
    )
    diags = report.by_rule("L005")
    assert any(d.severity is Severity.WARNING for d in diags)
    assert report.metrics["L005"]["hot_lines"] == 20
    assert report.metrics["L005"]["footprint_ratio"] == pytest.approx(20 / 16)


def test_half_capacity_defensiveness_info():
    m = leaf_module(10)  # 10 lines: under capacity, over half
    report = lint(m, baseline_layout(m).address_map, list(range(10)) * 4)
    diags = report.by_rule("L005")
    assert len(diags) == 1
    assert diags[0].severity is Severity.INFO
    assert "peer" in diags[0].message


def test_small_footprint_clean():
    m = leaf_module(4)
    report = lint(m, baseline_layout(m).address_map, [0, 1, 2, 3] * 4)
    assert report.by_rule("L005") == []


# -- L006 layout-integrity ---------------------------------------------------


def test_integrity_rejects_non_permutation_order():
    m = leaf_module(3)
    good = baseline_layout(m).address_map
    broken = AddressMap(
        order=[0, 0, 2],  # duplicate + missing
        starts=good.starts.copy(),
        sizes=good.sizes.copy(),
        added_jumps=0,
    )
    report = lint(m, broken, [0, 1, 2] * 5)
    msgs = [d.message for d in report.by_rule("L006")]
    assert any("appears twice" in s for s in msgs)
    assert any("misses" in s for s in msgs)
    assert not report.ok


def test_integrity_rejects_overlap():
    m = leaf_module(3)
    good = baseline_layout(m).address_map
    starts = good.starts.copy()
    starts[2] = int(starts[1]) + 4  # overlaps block 1
    broken = AddressMap(order=[0, 1, 2], starts=starts, sizes=good.sizes.copy(), added_jumps=0)
    report = lint(m, broken, [0, 1, 2] * 5)
    assert any("overlaps" in d.message for d in report.by_rule("L006"))
    assert not report.ok


def test_integrity_reports_gaps_as_info():
    m = leaf_module(3)
    amap = place_blocks(m, {0: 0, 1: 128, 2: 256})  # 64B gap after each block
    report = lint(m, amap, [0, 1, 2] * 5)
    gap = [d for d in report.by_rule("L006") if "gap" in d.message]
    assert len(gap) == 1
    assert gap[0].severity is Severity.INFO
    assert gap[0].measured["gap_bytes"] == 128
    assert report.ok  # gaps are not errors
    assert report.metrics["L006"]["gap_bytes"] == 128


def test_integrity_rejects_impossible_size():
    m = leaf_module(2)
    good = baseline_layout(m).address_map
    sizes = good.sizes.copy()
    sizes[1] = 4  # block has 16 instructions = 64B minimum
    broken = AddressMap(order=[0, 1], starts=good.starts.copy(), sizes=sizes, added_jumps=0)
    report = lint(m, broken, [0, 1] * 5)
    assert any("plausible range" in d.message for d in report.by_rule("L006"))


def test_audit_helpers_match_rule_output():
    m = leaf_module(3)
    assert audit_gid_order(m, [99])[0].message.startswith("gid 99 out of range")
    good = baseline_layout(m).address_map
    assert audit_address_map(m, good) == []


# -- config knobs ------------------------------------------------------------


def test_max_reports_caps_per_finding_diagnostics():
    n = 12
    m = leaf_module(n)
    # Three over-subscribed sets (0, 1, 2), four hot lines each.
    amap = place_blocks(m, {g: g * 512 + (g % 3) * 64 for g in range(n)})
    report = lint(m, amap, list(range(n)) * 4, LintConfig(max_reports=1))
    l1 = report.by_rule("L001")
    warnings = [d for d in l1 if d.severity is Severity.WARNING]
    notes = [d for d in l1 if d.severity is Severity.INFO]
    assert report.metrics["L001"]["n_conflict_sets"] == 3
    assert len(warnings) == 1
    assert len(notes) == 1 and "suppressed" in notes[0].message


def test_hot_coverage_widens_hot_set():
    m = leaf_module(4)
    amap = baseline_layout(m).address_map
    trace = [0] * 97 + [1, 2, 3]
    bundle = make_bundle(m, trace)
    narrow = run_lint(m, amap, bundle, TINY_CACHE, LintConfig(hot_coverage=0.5))
    wide = run_lint(m, amap, bundle, TINY_CACHE, LintConfig(hot_coverage=1.0))
    assert narrow.metrics["L005"]["hot_lines"] == 1
    assert wide.metrics["L005"]["hot_lines"] == 4
