"""Unit tests for the compilation driver (repro.compiler)."""

from pathlib import Path

import numpy as np
import pytest

from repro.compiler import Driver, load_layout, load_report
from repro.engine import InputSpec, fetch_lines
from repro.ir import LayoutKind

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "compiler-syn-sjeng-0.05.txt"


@pytest.fixture
def built(tiny_module, tmp_path):
    driver = Driver(optimizers=["bb-affinity", "function-trg"])
    return driver.build(
        tiny_module,
        InputSpec("test", seed=1, max_blocks=3000),
        InputSpec("ref", seed=2, max_blocks=4000),
        build_dir=tmp_path / "build",
    ), tiny_module, tmp_path


def test_build_produces_requested_layouts(built):
    result, module, _ = built
    assert set(result.layouts) == {"baseline", "bb-affinity", "function-trg"}
    assert result.layouts["bb-affinity"].kind is LayoutKind.BASIC_BLOCK
    assert set(result.miss_ratios) == set(result.layouts)
    assert result.timings["instrument"] > 0
    assert "optimize/bb-affinity" in result.timings


def test_best_layout_is_minimum(built):
    result, _, _ = built
    best = result.best_layout()
    assert result.miss_ratios[best] == min(result.miss_ratios.values())


def test_best_layout_requires_evaluation(tiny_module):
    driver = Driver(optimizers=["function-affinity"])
    result = driver.build(tiny_module, InputSpec("test", seed=1, max_blocks=2000))
    assert result.miss_ratios == {}
    with pytest.raises(ValueError):
        result.best_layout()


def test_build_with_lint_records_reports(tiny_module):
    driver = Driver(optimizers=["bb-affinity"])
    result = driver.build(
        tiny_module, InputSpec("test", seed=1, max_blocks=3000), lint=True
    )
    assert set(result.lint_reports) == {"baseline", "bb-affinity"}
    for report in result.lint_reports.values():
        assert report.ok  # legal layouts never produce L006 errors
        assert report.rules_run == ["L001", "L002", "L003", "L004", "L005", "L006"]
    assert result.timings["lint"] > 0
    rep = result.report()
    assert set(rep["lint"]) == {"baseline", "bb-affinity"}
    assert rep["lint"]["baseline"]["summary"]["errors"] == 0


def test_build_without_lint_skips_reports(tiny_module):
    driver = Driver(optimizers=["bb-affinity"])
    result = driver.build(tiny_module, InputSpec("test", seed=1, max_blocks=2000))
    assert result.lint_reports == {}
    assert "lint" not in result.report()


def test_unknown_optimizer_rejected():
    with pytest.raises(ValueError):
        Driver(optimizers=["magic-layout"])


def test_comparators_accepted(tiny_module):
    driver = Driver(optimizers=["bb-ph", "hotcold-split"])
    result = driver.build(tiny_module, InputSpec("test", seed=1, max_blocks=2000))
    assert "bb-ph" in result.layouts


def test_artifacts_written(built):
    result, _, tmp_path = built
    build = tmp_path / "build"
    assert (build / "trace.npz").exists()
    assert (build / "layout-baseline.json").exists()
    assert (build / "layout-bb-affinity.json").exists()
    report = load_report(build / "report.json")
    assert report["program"] == "tiny"
    assert report["layouts"]["bb-affinity"]["miss_ratio"] is not None


def test_layout_roundtrip_preserves_fetch_stream(built, tiny_bundle):
    result, module, tmp_path = built
    original = result.layouts["bb-affinity"]
    loaded = load_layout(tmp_path / "build" / "layout-bb-affinity.json")
    assert loaded.kind == original.kind
    assert loaded.note == original.note
    assert loaded.added_jumps == original.added_jumps
    a = fetch_lines(tiny_bundle.bb_trace, original.address_map, 64)
    b = fetch_lines(tiny_bundle.bb_trace, loaded.address_map, 64)
    assert np.array_equal(a, b)


def test_cli_main(tmp_path, capsys):
    from repro.compiler.__main__ import main

    rc = main(
        [
            "syn-mcf",
            "--optimizers",
            "function-affinity",
            "--scale",
            "0.05",
            "--build-dir",
            str(tmp_path / "b"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "best layout:" in out
    assert (tmp_path / "b" / "report.json").exists()


def test_cli_no_evaluate(tmp_path, capsys):
    from repro.compiler.__main__ import main

    rc = main(["syn-mcf", "--optimizers", "function-trg", "--scale", "0.05",
               "--no-evaluate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "best layout:" not in out
    assert "function-trg" in out


def test_cli_rejects_unknown_optimizer(capsys):
    from repro.compiler.__main__ import main

    with pytest.raises(SystemExit):
        main(["syn-mcf", "--optimizers", "nonsense"])


def test_cli_output_matches_golden(capsys):
    """The whole compile flow on syn-sjeng — per-layout bytes, jumps,
    miss ratios, lint and static-lint counts, and the best layout — prints
    exactly the committed text.  Regenerate after an intentional change::

        python -m repro.compiler syn-sjeng --scale 0.05 --lint --static-lint \\
            > tests/golden/compiler-syn-sjeng-0.05.txt
    """
    from repro.compiler.__main__ import main

    assert main(["syn-sjeng", "--scale", "0.05", "--lint", "--static-lint"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
