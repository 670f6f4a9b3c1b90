"""The ``python -m repro.fleet`` CLI and its bench gate."""

import json

import pytest

from repro.fleet.__main__ import _parity_gate, main

# The aware-beats-oblivious gate is a fleet-scale claim: tiny fleets can
# legitimately prefer segregating replicas, so the bench test runs the
# full 29-model suite at a small trace scale rather than a 2-program toy.
FULL_BENCH_ARGS = [
    "--scale", "0.02",
    "--matrix-capacities", "8",
    "--min-cells", "5000",
    "--max-curve-passes", "29",
    "--parity-trials", "3",
]


def test_parity_gate_clean():
    assert _parity_gate(seed=0, trials=5) == []


def test_parity_gate_catches_divergence(monkeypatch, capsys, tmp_path):
    """A corrupted scalar oracle must fail the bench before any fleet
    work runs (exit 1, divergences on stderr)."""
    import repro.locality.hotl as hotl

    monkeypatch.setattr(hotl, "shared_fill_time_scalar", lambda curves, cap: -1)
    rc = main(["bench", "--parity-trials", "2",
               "--out", str(tmp_path / "never.json")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "parity FAILED" in captured.err
    assert not (tmp_path / "never.json").exists()


def test_run_subcommand_prints_comparison(capsys):
    rc = main([
        "run", "--programs", "syn-gcc,syn-mcf", "--instances", "4",
        "--sockets", "2", "--scale", "0.02", "--matrix-capacities", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fleet: 4 instances on 2 sockets" in out
    assert "pair matrix: 3 pairs x 2 capacities" in out
    for policy in ("round-robin", "random", "worst-fit", "score-aware"):
        assert policy in out


@pytest.mark.slow
def test_bench_gate_end_to_end(tmp_path, capsys):
    """The real fleet-bench gate at reduced trace scale: parity clean,
    cells/passes thresholds hold, aware beats oblivious, and the
    BENCH_fleet.json report carries the fleet + fleet_bench sections."""
    from repro.experiments import Lab
    from repro.perf import BENCH_SCHEMA

    out = tmp_path / "BENCH_fleet.json"
    merge = tmp_path / "BENCH_perf.json"
    # Merging a section keeps whatever else the target report holds.
    merge.write_text(json.dumps({"schema": BENCH_SCHEMA, "keep": 1}))
    rc = main(["bench", *FULL_BENCH_ARGS, "--memo-dir", str(tmp_path / "memo"),
               "--out", str(out), "--bench", str(merge)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "fleet composition parity OK" in captured.out
    assert "fleet gate OK" in captured.out

    report = json.loads(out.read_text())
    assert report["schema"] == BENCH_SCHEMA
    # The lab snapshot carries the resolved kernel tier into the report.
    assert report["kernel_backend"] == Lab().backend.name
    assert report["kernel"]["backend"] == report["analysis"]["backend"]
    assert report["kernel"]["backend"] == report["kernel_backend"]
    fleet = report["fleet"]
    assert fleet["cells"] >= 5000
    assert fleet["curve_passes"] <= 29
    assert fleet["cells_per_curve"] > 1.0
    section = report["fleet_bench"]
    assert section["instances"] == 116
    assert section["sockets"] == 29
    assert section["models"] == 29
    assert section["aware_total_misses"] < section["oblivious_total_misses"]
    assert section["aware_policy"] in ("worst-fit", "score-aware")
    assert section["oblivious_policy"] in ("round-robin", "random")

    merged = json.loads(merge.read_text())
    assert merged["keep"] == 1  # existing report fields survive the merge
    assert merged["fleet_bench"] == section


def test_bench_threshold_failure(tmp_path, capsys):
    """An unreachable --min-cells fails the gate with a clear error."""
    rc = main([
        "bench", "--programs", "syn-gcc,syn-mcf", "--instances", "4",
        "--sockets", "2", "--scale", "0.02", "--matrix-capacities", "2",
        "--parity-trials", "1", "--min-cells", "10000000",
        "--max-curve-passes", "29",
    ])
    assert rc == 1
    assert "below required" in capsys.readouterr().err
