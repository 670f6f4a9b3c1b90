"""The ``python -m repro.staticlint`` CLI: output schema and exit codes."""

import json
from pathlib import Path

import pytest

from repro.staticlint.__main__ import DEFAULT_CERTIFY_PROGRAMS, main


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


# -- list-rules ---------------------------------------------------------------


def test_list_rules_prints_catalog(capsys):
    rc, out = run(capsys, "list-rules")
    assert rc == 0
    for rule_id in ("S001", "S002", "S003", "S004", "S005"):
        assert rule_id in out


# -- lint ---------------------------------------------------------------------


def test_lint_json_has_report_schema(capsys):
    rc, out = run(capsys, "lint", "syn-mcf", "--scale", "0.05", "--format", "json")
    assert rc == 0  # no ERROR diagnostics on a well-formed baseline
    payload = json.loads(out)
    assert payload["program"] == "syn-mcf"
    assert payload["layout"] == "baseline"
    assert list(payload["rules"]) == ["S001", "S002", "S003", "S004", "S005"]
    assert set(payload["summary"]["by_rule"]) == set(payload["rules"])
    assert payload["summary"]["errors"] == 0
    for d in payload["diagnostics"]:
        assert d["rule"].startswith("S")


def test_lint_json_matches_golden(capsys):
    """Pins the full S-pack report of one suite cell, byte for byte.

    Regenerate after an intentional analyzer change with::

        PYTHONPATH=src python -m repro.staticlint lint syn-mcf --scale 0.05 \
            --format json > tests/staticlint/golden/static_syn-mcf_baseline.json
    """
    rc, out = run(capsys, "lint", "syn-mcf", "--scale", "0.05", "--format", "json")
    assert rc == 0
    golden = Path(__file__).parent / "golden" / "static_syn-mcf_baseline.json"
    assert out == golden.read_text()


def test_lint_disable_skips_rule(capsys):
    rc, out = run(
        capsys,
        "lint", "syn-mcf", "--scale", "0.05", "--format", "json",
        "--disable", "S003", "--disable", "S004",
    )
    assert rc == 0
    payload = json.loads(out)
    assert list(payload["rules"]) == ["S001", "S002", "S005"]


def test_lint_usage_errors_exit_2(capsys):
    for argv in (
        ["lint", "syn-mcf", "--scale", "0"],
        ["lint", "syn-mcf", "--hot-coverage", "2"],
        ["lint", "syn-mcf", "--disable", "S999"],
        ["lint", "no-such-program"],
        ["lint", "syn-mcf", "--layout", "no-such-layout"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["lint", "syn-mcf", "--layout", "function-ph", "--scale", "0.05"],
        ["lint", "syn-mcf", "--layout", "hotcold-split", "--scale", "0.05"],
        ["lint", "syn-mcf", "--layout", "function-coloring", "--scale", "0.05"],
        ["certify", "--programs", "syn-mcf", "--layout", "bb-popularity", "--scale", "0.05"],
    ],
)
def test_comparator_layouts_are_built(capsys, argv):
    """Every ``--layout`` choice is built: comparators are not usage errors."""
    rc, _ = run(capsys, *argv)
    assert rc in (0, 1)


# -- certify ------------------------------------------------------------------


def test_default_gate_programs():
    assert DEFAULT_CERTIFY_PROGRAMS == ("syn-gcc", "syn-gobmk")


@pytest.fixture(scope="module")
def certify_json(tmp_path_factory):
    """One cheap certify run shared by the CLI tests (degenerate program,
    thresholds disabled: exercises plumbing, not calibration)."""
    bench = tmp_path_factory.mktemp("bench") / "BENCH_perf.json"
    return bench


def test_certify_json_and_bench_merge(capsys, certify_json):
    rc, out = run(
        capsys,
        "certify",
        "--programs", "syn-mcf",
        "--scale", "0.05",
        "--min-conflict-rho", "-1",
        "--format", "json",
        "--bench", str(certify_json),
    )
    assert rc == 0
    # stdout: the JSON payload followed by the bench-merge note line.
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["ok"] is True
    assert payload["min_conflict_rho"] == -1.0
    (result,) = payload["results"]
    assert result["program"] == "syn-mcf"
    assert result["layout"] == "baseline"
    assert result["n_lines"] > 0

    bench = json.loads(certify_json.read_text())
    section = bench["staticlint_bench"]
    assert section["ok"] is True
    assert section["certified"] == 1
    assert section["certify"][0]["program"] == "syn-mcf"
    assert {"diagnostics", "seconds", "diagnostics_per_s"} <= set(section)


def test_certify_bench_keeps_the_suite_staticlint_section(capsys, tmp_path):
    """Regression: ``certify --bench`` used to overwrite the suite's
    ``staticlint`` counters with its own numbers; it now writes its own
    ``staticlint_bench`` section next to them."""
    from repro.perf import Telemetry
    from repro.perf.__main__ import main as perf_main

    suite = Telemetry(jobs=2, scale=0.05)
    suite.merge({"counters": {"staticlint_certified": 8, "staticlint_diags": 464}})
    bench = suite.write(tmp_path / "BENCH_perf.json")
    before = json.loads(bench.read_text())["staticlint"]

    rc, out = run(
        capsys,
        "certify",
        "--programs", "syn-mcf",
        "--scale", "0.05",
        "--min-conflict-rho", "-1",
        "--bench", str(bench),
    )
    assert rc == 0
    assert "staticlint_bench section written" in out
    merged = json.loads(bench.read_text())
    assert merged["staticlint"] == before
    assert merged["staticlint"]["certified"] == 8
    assert "certify" not in merged["staticlint"]
    assert merged["staticlint_bench"]["certified"] == 1

    assert perf_main(["show-bench", str(bench)]) == 0
    shown = capsys.readouterr().out
    assert "staticlint: 464 diagnostics" in shown
    (gate_line,) = [ln for ln in shown.splitlines() if ln.startswith("staticlint-bench:")]
    assert gate_line.endswith("1 program(s) certified")
    assert "certify syn-mcf/baseline" in shown


def test_certify_threshold_failure_exits_1(capsys):
    # syn-mcf has no oversubscribed set: conflict_rho is pinned at 0, so
    # any positive threshold fails.
    rc = main(
        [
            "certify",
            "--programs", "syn-mcf",
            "--scale", "0.05",
            "--min-conflict-rho", "0.5",
        ]
    )
    capsys.readouterr()
    assert rc == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["lint", "no-such-program"],
        ["certify", "--programs", "syn-mcf", "no-such-program", "--scale", "0.05"],
    ],
)
def test_unknown_program_lists_the_suite(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown suite program 'no-such-program'" in err
    assert "syn-mcf" in err  # names the known programs


def test_certify_usage_errors_exit_2(capsys):
    for argv in (
        ["certify", "--scale", "0"],
        ["certify", "--programs", "no-such-program", "--scale", "0.05"],
        ["certify", "--layout", "no-such-layout"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()
