"""Unit tests for the diagnostics core (repro.lint.diagnostics, .rules)."""

import json

import pytest

from repro.ir import baseline_layout
from repro.lint import (
    Diagnostic,
    LintConfig,
    LintReport,
    Severity,
    all_rules,
    render_json,
    render_text,
    run_lint,
)

from .conftest import TINY_CACHE, leaf_module, make_bundle


def test_severity_ordering_and_parse():
    assert Severity.INFO.rank < Severity.WARNING.rank < Severity.ERROR.rank
    assert Severity.parse("Error") is Severity.ERROR
    assert Severity.parse(" warning ") is Severity.WARNING
    with pytest.raises(ValueError, match="unknown severity"):
        Severity.parse("fatal")


def test_diagnostic_format_and_dict():
    d = Diagnostic("L001", Severity.WARNING, "set 3", "too crowded", {"hot_lines": 7})
    text = d.format()
    assert "WARNING" in text and "L001" in text and "set 3" in text
    assert "hot_lines=7" in text
    assert d.to_dict()["severity"] == "warning"


def test_report_counts_and_ok():
    r = LintReport("p", "base", "cache")
    assert r.ok and r.max_severity() is None
    r.extend(
        [
            Diagnostic("L001", Severity.WARNING, "x", "w"),
            Diagnostic("L006", Severity.ERROR, "y", "e"),
        ]
    )
    assert r.n_errors == 1 and r.n_warnings == 1
    assert not r.ok
    assert r.max_severity() is Severity.ERROR
    assert r.by_rule("L006")[0].message == "e"


def test_registry_catalog_is_the_full_rule_pack():
    ids = [r.id for r in all_rules()]
    assert ids == ["L001", "L002", "L003", "L004", "L005", "L006"]
    assert all_rules()[0].name == "set-conflict-hotspot"
    assert all_rules()[-1].default_severity is Severity.ERROR


def _lint_leafmod(config=None):
    m = leaf_module(4)
    bundle = make_bundle(m, [0, 1, 2, 3] * 8)
    return run_lint(m, baseline_layout(m), bundle, TINY_CACHE, config)


def test_run_lint_reports_every_rule_even_when_clean():
    report = _lint_leafmod()
    assert report.rules_run == ["L001", "L002", "L003", "L004", "L005", "L006"]
    assert set(report.metrics) == set(report.rules_run)
    # metrics are present even for rules with zero diagnostics.
    assert "conflict_score" in report.metrics["L001"]


def test_disable_rule_skips_it():
    report = _lint_leafmod(LintConfig(disabled=frozenset({"L004", "L005"})))
    assert "L004" not in report.rules_run
    assert "L004" not in report.metrics


def test_severity_override_rewrites_rule_diagnostics():
    # leafmod's 4 x 64B hot blocks exceed the 1KB cache's half-capacity
    # threshold?  No — force a deterministic case via L005 on a big module.
    m = leaf_module(20, n_instr=16)  # 20 x 64B = 1280B > 1KB capacity
    bundle = make_bundle(m, list(range(20)) * 4)
    base = run_lint(m, baseline_layout(m), bundle, TINY_CACHE)
    assert any(d.severity is Severity.WARNING for d in base.by_rule("L005"))
    forced = run_lint(
        m,
        baseline_layout(m),
        bundle,
        TINY_CACHE,
        LintConfig(severity_overrides={"L005": Severity.ERROR}),
    )
    assert all(d.severity is Severity.ERROR for d in forced.by_rule("L005"))
    assert not forced.ok


def test_render_text_and_json_roundtrip():
    report = _lint_leafmod()
    text = render_text(report)
    assert "lint leafmod" in text
    assert "rule(s)" in text
    data = json.loads(render_json(report))
    assert data["program"] == "leafmod"
    assert set(data["rules"]) == set(report.rules_run)
    assert data["summary"]["errors"] == 0
