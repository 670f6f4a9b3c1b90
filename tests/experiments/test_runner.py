"""Unit tests for the experiment registry and self-contained drivers."""

import io

import pytest

from repro.experiments import Lab
from repro.experiments.runner import EXPERIMENTS, run_experiment


def test_registry_covers_every_paper_artifact():
    expected = {
        "intro-table",
        "table1",
        "fig4",
        "fig5",
        "table2",
        "fig6",
        "fig7",
        "optopt",
        "comparators",
        "unified",
        "model-validation",
        "smt-width",
        "cache-sweep",
        "scheduling",
        "ablation-trg-window",
        "ablation-affinity-windows",
        "ablation-pruning",
        "ablation-optimal-gap",
        "ablation-seeds",
        "staticlint-certify",
        "fleet",
    }
    assert set(EXPERIMENTS) == expected


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("fig99", Lab(scale=0.05))


def test_optimal_gap_is_self_contained():
    result = run_experiment("ablation-optimal-gap", Lab(scale=0.05))
    assert result.exp_id == "ablation-optimal-gap"
    s = result.summary
    # heuristics can't beat the exhaustive optimum.
    assert s["affinity"] >= s["optimal"]
    assert s["trg"] >= s["optimal"]
    assert s["worst"] >= s["optimal"]


def test_fig5_structure_small_scale():
    lab = Lab(scale=0.05, noise_sigma=0.0)
    result = run_experiment("fig5", lab)
    assert result.exp_id == "fig5"
    assert len(result.rows) == 8
    # perlbench/povray report N/A for BB reordering.
    by_program = {r[0]: r for r in result.rows}
    assert by_program["syn-perlbench"][3] == "N/A"
    assert by_program["syn-povray"][3] == "N/A"
    assert by_program["syn-gcc"][3] != "N/A"


def test_main_cli_runs_one_experiment(capsys):
    from repro.experiments.runner import main

    rc = main(["--scale", "0.05", "--only", "ablation-optimal-gap"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ablation-optimal-gap" in out
    assert "optimal" in out


def test_main_rejects_unknown_experiment(capsys):
    """A bad --only id exits 2 with the known-ids message, no traceback."""
    from repro.experiments.runner import main

    rc = main(["--scale", "0.05", "--only", "fig99"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown experiment id(s): fig99" in err
    assert "known ids:" in err
    assert "ablation-seeds" in err


def test_main_rejects_out_of_range_scale(capsys):
    from repro.experiments.runner import main

    for bad in ("0", "1.5", "-0.1", "banana"):
        with pytest.raises(SystemExit) as exc:
            main(["--scale", bad, "--only", "ablation-optimal-gap"])
        assert exc.value.code == 2
    assert "scale must be" in capsys.readouterr().err


def test_run_suite_with_subset():
    from repro.experiments.runner import run_suite

    lab = Lab(scale=0.05)
    outcomes = run_suite(lab, ["ablation-optimal-gap"], out=io.StringIO())
    assert [o.status for o in outcomes] == ["ok"]
    assert outcomes[0].result.exp_id == "ablation-optimal-gap"
