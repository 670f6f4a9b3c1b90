"""End-to-end tests of ``python -m repro.lint`` (acceptance: runs on at
least two suite programs and emits the full rule pack as JSON)."""

import json

import pytest

from repro.lint.__main__ import main

FULL_PACK = ["L001", "L002", "L003", "L004", "L005", "L006"]


@pytest.mark.parametrize("program", ["syn-mcf", "syn-sjeng"])
def test_cli_json_end_to_end(program, capsys):
    rc = main([program, "--scale", "0.05", "--format", "json"])
    assert rc in (0, 1)
    data = json.loads(capsys.readouterr().out)
    assert data["program"] == program
    assert data["layout"] == "baseline"
    assert list(data["rules"]) == FULL_PACK
    for rule_id in FULL_PACK:
        assert "metrics" in data["rules"][rule_id]
    # a structurally sound baseline never has errors.
    assert data["summary"]["errors"] == 0
    assert rc == 0


def test_cli_text_output(capsys):
    rc = main(["syn-mcf", "--scale", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lint syn-mcf / baseline" in out
    assert "rule(s)" in out


def test_cli_optimized_layout(capsys):
    rc = main(["syn-mcf", "--scale", "0.05", "--layout", "function-affinity"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "function-affinity" in out


def test_cli_compare(capsys):
    rc = main(["syn-mcf", "--scale", "0.05", "--compare", "baseline", "bb-affinity"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "compare baseline vs bb-affinity" in out
    assert "verdict:" in out


def test_cli_compare_json(capsys):
    rc = main(
        [
            "syn-mcf",
            "--scale",
            "0.05",
            "--compare",
            "baseline",
            "function-trg",
            "--format",
            "json",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["a"] == "baseline"
    assert data["winner"] in ("baseline", "function-trg", "tie")
    assert data["metrics"]


def test_cli_disable_and_severity(capsys):
    rc = main(
        [
            "syn-mcf",
            "--scale",
            "0.05",
            "--disable",
            "L002",
            "--severity",
            "L004=info",
            "--format",
            "json",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert "L002" not in data["rules"]
    l4 = [d for d in data["diagnostics"] if d["rule"] == "L004"]
    assert all(d["severity"] == "info" for d in l4)


def test_cli_list_rules(capsys):
    rc = main(["--list-rules"])
    assert rc == 0
    out = capsys.readouterr().out
    for rule_id in FULL_PACK:
        assert rule_id in out


def test_cli_rejects_unknown_program(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-program"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown suite program 'no-such-program'" in err
    assert "syn-mcf" in err  # names the known programs
    assert "prepare failed" not in err


def test_cli_rejects_unknown_rule(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["syn-mcf", "--disable", "L999"])
    assert exc.value.code == 2


def test_cli_rejects_bad_hot_coverage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["syn-mcf", "--hot-coverage", "0"])
    assert exc.value.code == 2


def test_cli_requires_program(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
