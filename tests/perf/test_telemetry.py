"""Telemetry / BENCH_perf.json (repro.perf.telemetry) and the perf CLI."""

import io
import json

import pytest

from repro.experiments import Lab
from repro.experiments.runner import main as runner_main
from repro.experiments.runner import run_suite
from repro.perf import BENCH_SCHEMA, Telemetry, compare_journal_outcomes
from repro.perf.__main__ import main as perf_main
from repro.perf.telemetry import add_into, delta, merge_bench_section


#: a fixed set of telemetry records covering every section: zero-valued
#: store counters, a bool ``partial``, a derived ``hit_rate`` that must
#: be recomputed rather than summed, extended memo counters only one
#: part carries, and an empty trailing part (a serial path that shipped
#: no memo/store/resilience).
GOLDEN_PARTS = [
    {
        "stages": {"simulate": 1.0, "optimize": 0.5},
        "counters": {
            "sim_accesses": 1000, "sim_seconds": 0.5,
            "kernel_accesses": 4000, "kernel_seconds": 0.5,
            "kernel_passes": 2, "kernel_cells": 10,
            "analysis_accesses": 2000, "analysis_seconds": 0.5,
            "analysis_passes": 2, "analysis_cells": 4, "analysis_memo_hits": 2,
            "staticlint_diags": 64, "staticlint_seconds": 0.125,
            "staticlint_certified": 1,
            "store_bytes_shipped": 0, "store_bytes_mapped": 4096,
            "pool_fanouts": 1, "pool_reuses": 0,
            "curve_passes": 20, "curve_seconds": 1.5, "curve_memo_hits": 9,
            "fleet_cells": 111360, "fleet_seconds": 2.0,
        },
        "memo": {"hits": 1, "misses": 1, "disk_failures": 2,
                 "breaker_trips": 1, "hit_rate": 0.5},
        "store": {"puts": 0, "dup_puts": 0, "hits": 2, "misses": 0,
                  "bytes_written": 0, "bytes_mapped": 8192,
                  "corrupt_dropped": 0},
        "resilience": {"workers_spawned": 2, "worker_crashes": 1,
                       "partial": False},
        "kernel_backend": "numpy",
    },
    {
        "stages": {"simulate": 0.25, "prepare": 0.125},
        "counters": {
            "sim_accesses": 500, "sim_seconds": 0.25,
            "kernel_accesses": 500, "kernel_seconds": 0.25,
            "analysis_accesses": 1000, "analysis_seconds": 0.5,
            "staticlint_diags": 400, "staticlint_certified": 7,
            "store_bytes_shipped": 128, "pool_reuses": 3,
            "curve_passes": 9, "fleet_cells": 640,
        },
        "memo": {"hits": 1, "misses": 0, "lock_waits": 3, "hit_rate": 1.0},
        "store": {"puts": 0, "hits": 1},
        "resilience": {"workers_spawned": 3, "worker_crashes": 0,
                       "partial": True},
        "kernel_backend": "numpy",
    },
    {"memo": None, "store": None, "resilience": None},
]

#: ``to_dict()`` of GOLDEN_PARTS (minus ``generated_at``), recorded from
#: the per-section merge implementation this layout was defined by.
GOLDEN_RENDER = {
    "analysis": {
        "accesses": 3000, "accesses_per_s": 3000.0, "backend": "numpy",
        "cells": 4, "memo_hits": 2, "passes": 2, "seconds": 1.0,
    },
    "experiments": {
        "fig4": {"attempts": 1, "elapsed_s": 1.234, "status": "ok"},
        "table1": {"attempts": 3, "elapsed_s": 0.5, "status": "failed"},
    },
    "fleet": {
        "cells": 112000, "cells_per_curve": 2947.4, "cells_per_s": 56000.0,
        "curve_memo_hits": 9, "curve_passes": 29, "curve_seconds": 1.5,
        "seconds": 2.0,
    },
    "jobs": 2,
    "kernel": {
        "accesses": 4500, "accesses_per_s": 6000.0, "backend": "numpy",
        "cells": 10, "cells_per_pass": 5.0, "passes": 2, "seconds": 0.75,
    },
    "kernel_backend": "numpy",
    "memo": {
        "breaker_trips": 1, "disk_failures": 2, "hit_rate": 0.6667,
        "hits": 2, "lock_waits": 3, "misses": 1,
    },
    "resilience": {"partial": True, "worker_crashes": 1, "workers_spawned": 5},
    "scale": 0.05,
    "schema": "repro.perf/bench.v8",
    "simulator": {"accesses": 1500, "accesses_per_s": 2000.0, "seconds": 0.75},
    "stages": {"optimize": 0.5, "prepare": 0.125, "simulate": 1.25},
    "staticlint": {
        "certified": 8, "diagnostics": 464, "diagnostics_per_s": 3712.0,
        "seconds": 0.125,
    },
    "store": {
        "backend": {
            "bytes_mapped": 8192, "bytes_written": 0, "corrupt_dropped": 0,
            "dup_puts": 0, "hits": 3, "misses": 0, "puts": 0,
        },
        "bytes_mapped": 4096, "bytes_shipped": 128, "pool_fanouts": 1,
        "pool_reuses": 3,
    },
    "wall_s": 3.142,
}

#: ``to_dict()`` of a Telemetry nothing was merged into.
EMPTY_RENDER = {
    "analysis": {
        "accesses": 0, "accesses_per_s": 0.0, "backend": None, "cells": 0,
        "memo_hits": 0, "passes": 0, "seconds": 0.0,
    },
    "experiments": {},
    "fleet": None,
    "jobs": 1,
    "kernel": {
        "accesses": 0, "accesses_per_s": 0.0, "backend": None, "cells": 0,
        "cells_per_pass": 0.0, "passes": 0, "seconds": 0.0,
    },
    "kernel_backend": None,
    "memo": None,
    "resilience": None,
    "scale": 1.0,
    "schema": "repro.perf/bench.v8",
    "simulator": {"accesses": 0, "accesses_per_s": 0.0, "seconds": 0.0},
    "stages": {},
    "staticlint": {
        "certified": 0, "diagnostics": 0, "diagnostics_per_s": 0.0,
        "seconds": 0.0,
    },
    "store": None,
    "wall_s": 0.0,
}


def _rendered(t: Telemetry) -> str:
    """The report as written, minus its one epoch-time stamp."""
    d = t.to_dict()
    del d["generated_at"]
    return json.dumps(d, indent=2, sort_keys=True)


def _flat_keys(d: dict, prefix: str = "") -> set[str]:
    keys: set[str] = set()
    for k, v in d.items():
        if isinstance(v, dict) and v:
            keys |= _flat_keys(v, f"{prefix}{k}.")
        else:
            keys.add(f"{prefix}{k}")
    return keys


class TestTelemetry:
    def test_golden_render_is_bench_v8(self):
        """Golden lock on the bench.v8 layout: memo counters only some
        parts carry are summed, hit_rate is recomputed (2/3), zero-valued
        store counters survive, numbers sum and ``partial`` ORs."""
        t = Telemetry(jobs=2, scale=0.05)
        for part in GOLDEN_PARTS:
            t.merge(part)
        t.record_experiment("fig4", "ok", 1.2345, 1)
        t.record_experiment("table1", "failed", 0.5, 3)
        t.wall_s = 3.14159
        assert _rendered(t) == json.dumps(GOLDEN_RENDER, indent=2, sort_keys=True)
        assert _rendered(Telemetry()) == json.dumps(
            EMPTY_RENDER, indent=2, sort_keys=True
        )

    def test_add_into_and_delta_are_inverse(self):
        before = GOLDEN_PARTS[0]
        after = add_into(add_into({}, before), GOLDEN_PARTS[1])
        grown = delta(after, before)
        assert grown["counters"]["sim_accesses"] == 500
        assert grown["counters"]["kernel_passes"] == 0
        assert grown["resilience"]["partial"] is True
        assert grown["kernel_backend"] == "numpy"
        assert "hit_rate" not in grown["memo"]
        assert add_into(add_into({}, before), grown) == after

    def test_add_into_never_aliases_the_part(self):
        part = {"stages": {"simulate": 1.0}}
        total = add_into({}, part)
        add_into(total, part)
        assert part == {"stages": {"simulate": 1.0}}
        assert total == {"stages": {"simulate": 2.0}}

    def test_merging_and_schema(self):
        t = Telemetry(jobs=2, scale=0.1)
        t.merge({"stages": {"simulate": 1.0, "optimize": 0.5}})
        t.merge({"stages": {"simulate": 0.25}})
        t.merge({"counters": {"sim_accesses": 1000, "sim_seconds": 0.5}})
        t.merge({"counters": {"sim_accesses": 500, "sim_seconds": 0.25}})
        t.merge({"memo": {"hits": 3, "misses": 1, "bypasses": 2}})
        t.record_experiment("fig4", "ok", 1.234, 1)
        t.wall_s = 2.0
        d = t.to_dict()
        assert d["schema"] == BENCH_SCHEMA
        assert d["jobs"] == 2 and d["scale"] == 0.1
        assert d["stages"] == {"simulate": 1.25, "optimize": 0.5}
        assert d["simulator"] == {
            "accesses": 1500,
            "seconds": 0.75,
            "accesses_per_s": 2000.0,
        }
        assert d["memo"]["hit_rate"] == 0.75
        assert d["experiments"]["fig4"] == {
            "status": "ok",
            "elapsed_s": 1.234,
            "attempts": 1,
        }

    def test_memo_merge_accumulates_across_workers(self):
        t = Telemetry()
        t.merge({"memo": {"hits": 1, "misses": 1}})
        t.merge({"memo": {"hits": 3, "misses": 0}})
        assert t.totals["memo"]["hits"] == 4
        assert t.to_dict()["memo"]["hit_rate"] == 0.8
        t.merge({"memo": None})  # workers without a memo ship None
        assert t.totals["memo"]["hits"] == 4

    def test_memo_merge_sums_every_numeric_counter(self):
        """The memo counter key set is owned by SimMemo and has grown
        (breaker, locks); merge must not hardcode it."""
        t = Telemetry()
        t.merge(
            {"memo": {"hits": 1, "misses": 1, "disk_failures": 2,
                      "breaker_trips": 1, "hit_rate": 0.5}}
        )
        t.merge({"memo": {"hits": 1, "misses": 0, "lock_waits": 3,
                          "hit_rate": 1.0}})
        memo = t.to_dict()["memo"]
        assert memo["disk_failures"] == 2
        assert memo["breaker_trips"] == 1
        assert memo["lock_waits"] == 3
        # hit_rate is recomputed from the sums, never summed.
        assert memo["hit_rate"] == round(2 / 3, 4)

    def test_resilience_merge_sums_numbers_and_ors_bools(self):
        t = Telemetry()
        t.merge(
            {"resilience": {"workers_spawned": 2, "worker_crashes": 1,
                            "partial": False}}
        )
        t.merge(
            {"resilience": {"workers_spawned": 3, "worker_crashes": 0,
                            "partial": True}}
        )
        t.merge({"resilience": None})  # serial paths ship nothing
        assert t.to_dict()["resilience"] == {
            "workers_spawned": 5,
            "worker_crashes": 1,
            "partial": True,
        }
        assert Telemetry().to_dict()["resilience"] is None

    def test_empty_telemetry_renders(self):
        d = Telemetry().to_dict()
        assert d["memo"] is None
        assert d["simulator"]["accesses_per_s"] == 0.0

    def test_write_is_valid_json(self, tmp_path):
        path = Telemetry().write(tmp_path / "BENCH_perf.json")
        assert json.loads(path.read_text())["schema"] == BENCH_SCHEMA

    def test_run_suite_populates_telemetry(self):
        # ablation-pruning's measurements are all sim-channel, so with
        # the default kernel routing the scalar counters stay zero and
        # the kernel counters carry the work.
        lab = Lab(scale=0.05, noise_sigma=0.0)
        t = Telemetry(jobs=1, scale=0.05)
        run_suite(lab, ["ablation-pruning"], out=io.StringIO(), telemetry=t)
        d = t.to_dict()
        assert d["experiments"]["ablation-pruning"]["status"] == "ok"
        assert t.wall_s > 0
        assert d["kernel"]["accesses"] > 0
        assert d["kernel"]["seconds"] > 0
        assert d["kernel"]["passes"] > 0
        assert d["kernel"]["cells"] > 0
        assert d["simulator"]["accesses"] == 0
        assert "simulate" in d["stages"]
        # The snapshot carries the lab's resolved tier into the report.
        assert d["kernel_backend"] == d["kernel"]["backend"] == lab.backend.name

    def test_run_suite_scalar_counters_without_kernel(self):
        # fig4 measures through the hw channel and co-runs only: the
        # event-driven simulator's counters carry the work on any tier.
        lab = Lab(scale=0.05, noise_sigma=0.0, kernel_backend="scalar")
        t = Telemetry(jobs=1, scale=0.05)
        run_suite(lab, ["fig4"], out=io.StringIO(), telemetry=t)
        d = t.to_dict()
        assert d["simulator"]["accesses"] > 0
        assert d["simulator"]["seconds"] > 0
        assert d["kernel"]["accesses"] == 0
        assert d["kernel_backend"] == "scalar"

    def test_kernel_counter_merge_and_rendering(self):
        t = Telemetry()
        t.merge(
            {
                "counters": {
                    "kernel_accesses": 1000,
                    "kernel_seconds": 0.5,
                    "kernel_passes": 2,
                    "kernel_cells": 10,
                }
            }
        )
        t.merge({"counters": {"kernel_accesses": 500, "kernel_seconds": 0.25}})
        d = t.to_dict()["kernel"]
        assert d["accesses"] == 1500
        assert d["seconds"] == 0.75
        assert d["accesses_per_s"] == 2000.0
        assert d["passes"] == 2
        assert d["cells"] == 10
        assert d["cells_per_pass"] == 5.0
        assert Telemetry().to_dict()["kernel"]["cells_per_pass"] == 0.0

    def test_analysis_counter_merge_and_rendering(self):
        """bench.v3: the analysis section aggregates the optimize-stage
        locality-model kernel counters across experiments and workers."""
        t = Telemetry()
        t.merge(
            {
                "counters": {
                    "analysis_accesses": 2000,
                    "analysis_seconds": 0.5,
                    "analysis_passes": 2,
                    "analysis_cells": 4,
                    "analysis_memo_hits": 2,
                }
            }
        )
        t.merge({"counters": {"analysis_accesses": 1000, "analysis_seconds": 0.5}})
        d = t.to_dict()["analysis"]
        assert d["accesses"] == 3000
        assert d["seconds"] == 1.0
        assert d["accesses_per_s"] == 3000.0
        assert d["passes"] == 2
        assert d["cells"] == 4
        assert d["memo_hits"] == 2
        assert Telemetry().to_dict()["analysis"]["accesses_per_s"] == 0.0

    def test_run_suite_populates_analysis_counters(self):
        lab = Lab(scale=0.05, noise_sigma=0.0)
        t = Telemetry(jobs=1, scale=0.05)
        run_suite(lab, ["ablation-pruning"], out=io.StringIO(), telemetry=t)
        d = t.to_dict()["analysis"]
        assert d["cells"] > 0
        assert d["passes"] > 0
        assert d["accesses"] > 0
        assert d["seconds"] > 0
        assert d["cells"] == lab.counters["analysis_cells"]
        assert d["accesses_per_s"] > 0

    def test_serial_and_parallel_reports_share_one_layout(self, tmp_path):
        """The serial path merges the lab snapshot, the parallel path the
        workers' deltas; both render the same report keys, except the
        supervisor's resilience section only a pool has."""
        reports = {}
        for jobs in (1, 2):
            t = Telemetry(jobs=jobs, scale=0.05)
            run_suite(
                Lab(scale=0.05, noise_sigma=0.0),
                ["table1"],
                out=io.StringIO(),
                jobs=jobs,
                telemetry=t,
            )
            path = t.write(tmp_path / f"BENCH_perf_{jobs}.json")
            reports[jobs] = json.loads(path.read_text())

        def keys(report):
            return {k for k in _flat_keys(report) if not k.startswith("resilience")}

        assert keys(reports[1]) == keys(reports[2])
        assert reports[1]["resilience"] is None
        assert reports[2]["resilience"]["workers_spawned"] >= 1
        assert reports[1]["kernel_backend"] == reports[2]["kernel_backend"]
        assert reports[1]["kernel_backend"] is not None


class TestMergeBenchSection:
    def test_sets_section_and_keeps_the_rest(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"schema": BENCH_SCHEMA, "staticlint": {"x": 1}}))
        merge_bench_section(path, "kernel_bench", {"speedup": 2.0})
        assert json.loads(path.read_text()) == {
            "schema": BENCH_SCHEMA,
            "staticlint": {"x": 1},
            "kernel_bench": {"speedup": 2.0},
        }

    @pytest.mark.parametrize("content", [None, "not json", "[1, 2]"])
    def test_missing_or_unreadable_report_starts_fresh(self, tmp_path, content):
        path = tmp_path / "BENCH_perf.json"
        if content is not None:
            path.write_text(content)
        merge_bench_section(path, "store_bench", {"ratio": 10.0})
        assert json.loads(path.read_text()) == {
            "schema": BENCH_SCHEMA,
            "store_bench": {"ratio": 10.0},
        }

    @pytest.mark.parametrize("name", ["staticlint", "kernel", "stages", "schema"])
    def test_suite_sections_are_refused(self, tmp_path, name):
        path = tmp_path / "BENCH_perf.json"
        with pytest.raises(ValueError, match="suite section"):
            merge_bench_section(path, name, {})
        assert not path.exists()


class TestCompareJournalOutcomes:
    A = {"exp_id": "fig4", "status": "ok", "elapsed_s": 1.0, "error": None}

    def test_timing_fields_ignored(self):
        b = dict(self.A, elapsed_s=99.0, finished_at=1.0, timings={"x": 1})
        assert compare_journal_outcomes([self.A], [b]) == []

    def test_outcome_fields_compared(self):
        b = dict(self.A, status="failed")
        diffs = compare_journal_outcomes([self.A], [b])
        assert len(diffs) == 1 and "entry 0" in diffs[0]

    def test_count_mismatch(self):
        assert "entry count differs" in compare_journal_outcomes([self.A], [])[0]

    def test_storage_checksum_always_ignored(self):
        b = dict(self.A, check="deadbeefdeadbeef")
        assert compare_journal_outcomes([self.A], [b]) == []

    def test_summary_values_compared_exactly(self):
        """Two runs that differ in one headline number are not at parity."""
        a = dict(self.A, summary={"avg": 0.1, "gap": float("nan")}, rows=[["x", "1%"]])
        b = dict(a, summary={"avg": 0.1 + 1e-12, "gap": float("nan")})
        [diff] = compare_journal_outcomes([a], [b])
        assert "summary" in diff and "avg" in diff
        assert compare_journal_outcomes([a], [dict(a)]) == []

    def test_rows_compared(self):
        a = dict(self.A, rows=[["x", "1%"], ["y", "2%"]])
        b = dict(self.A, rows=[["x", "1%"], ["y", "3%"]])
        [diff] = compare_journal_outcomes([a], [b])
        assert "row 1" in diff

    def test_outcome_present_on_one_side_only_differs(self):
        assert compare_journal_outcomes([dict(self.A, summary={})], [self.A]) != []

    def test_ignore_param_tolerates_named_fields(self):
        b = dict(self.A, attempts=3)
        a = dict(self.A, attempts=1)
        assert compare_journal_outcomes([a], [b]) != []
        assert compare_journal_outcomes([a], [b], ignore=("attempts",)) == []


class TestPerfCli:
    def _write_journal(self, tmp_path, name, fault=None):
        path = tmp_path / name
        code = runner_main(
            [
                "--only", "ablation-pruning", "ablation-optimal-gap",
                "--scale", "0.05", "--keep-going",
                "--journal", str(path),
            ]
            + (["--inject-fault", fault] if fault else [])
        )
        return path, code

    def test_compare_journals_agree(self, tmp_path, capsys):
        a, _ = self._write_journal(tmp_path, "a.jsonl")
        b, _ = self._write_journal(tmp_path, "b.jsonl")
        assert perf_main(["compare-journals", str(a), str(b)]) == 0
        assert "journals agree" in capsys.readouterr().out

    def test_compare_journals_differ(self, tmp_path, capsys):
        a, _ = self._write_journal(tmp_path, "a.jsonl")
        b, code = self._write_journal(tmp_path, "b.jsonl", fault="ablation-pruning")
        assert code == 1  # the faulted run exits nonzero
        assert perf_main(["compare-journals", str(a), str(b)]) == 1
        assert "journals differ" in capsys.readouterr().out

    def test_bench_out_written_by_runner(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_perf.json"
        code = runner_main(
            [
                "--only", "ablation-pruning",
                "--scale", "0.05",
                "--memo-dir", str(tmp_path / "memo"),
                "--bench-out", str(bench),
            ]
        )
        assert code == 0
        assert f"bench: {bench}" in capsys.readouterr().out
        report = json.loads(bench.read_text())
        assert report["schema"] == BENCH_SCHEMA
        assert report["experiments"]["ablation-pruning"]["status"] == "ok"
        assert report["kernel"]["accesses"] > 0
        assert report["kernel"]["passes"] > 0
        assert report["memo"]["misses"] > 0
        assert perf_main(["show-bench", str(bench)]) == 0
        out = capsys.readouterr().out
        assert "simulator:" in out
        assert "kernel:" in out

    def test_show_bench_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "other.json"
        # Only the current layout is read; older bench tags are foreign.
        for schema in ("something.else", "repro.perf/bench.v7"):
            path.write_text(json.dumps({"schema": schema}))
            assert perf_main(["show-bench", str(path)]) == 2

    def test_kernel_bench_parity_gate(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_perf.json"
        code = perf_main(
            [
                "kernel-bench",
                "--scale", "0.05",
                "--assocs", "1,2,4",
                "--bench", str(bench),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "kernel parity OK" in out
        report = json.loads(bench.read_text())
        kb = report["kernel_bench"]
        assert kb["assocs"] == [1, 2, 4]
        assert kb["n_sets"] == 128
        assert kb["speedup"] > 0
        # The section merges into an existing report and survives show-bench.
        assert perf_main(["show-bench", str(bench)]) == 0
        assert "kernel-bench:" in capsys.readouterr().out

    def test_kernel_bench_min_speedup_enforced(self, capsys):
        code = perf_main(
            ["kernel-bench", "--scale", "0.05", "--min-speedup", "1e9"]
        )
        assert code == 1
        assert "below required" in capsys.readouterr().err

    def test_analysis_bench_parity_gate(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_perf.json"
        out = tmp_path / "BENCH_analysis.json"
        code = perf_main(
            [
                "analysis-bench",
                "--scale", "0.05",
                "--reps", "1",
                "--bench", str(bench),
                "--out", str(out),
            ]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert "analysis parity OK" in printed
        report = json.loads(bench.read_text())
        ab = report["analysis_bench"]
        assert ab["program"] == "syn-gcc"
        assert ab["w_max"] == 20
        assert ab["window_blocks"] == 256
        assert ab["speedup"] > 0
        assert ab["trace_accesses"] > 0
        standalone = json.loads(out.read_text())
        assert standalone["schema"] == "repro.perf/analysis-bench.v1"
        assert standalone["speedup"] == ab["speedup"]
        # The merged section survives show-bench.
        assert perf_main(["show-bench", str(bench)]) == 0
        assert "analysis-bench:" in capsys.readouterr().out

    def test_analysis_bench_min_speedup_enforced(self, capsys):
        code = perf_main(
            ["analysis-bench", "--scale", "0.05", "--reps", "1",
             "--min-speedup", "1e9"]
        )
        assert code == 1
        assert "below required" in capsys.readouterr().err

    def test_no_fast_analysis_journal_parity(self, tmp_path, capsys):
        """The full pipeline output is byte-identical on the default tier
        and on the scalar oracle tier (modulo timing fields) — the
        end-to-end contract of --kernel-backend scalar."""
        fast = tmp_path / "fast.jsonl"
        scalar = tmp_path / "scalar.jsonl"
        base = [
            "--only", "ablation-pruning", "fig4",
            "--scale", "0.05", "--journal",
        ]
        assert runner_main(base + [str(fast)]) == 0
        assert runner_main(base + [str(scalar), "--kernel-backend", "scalar"]) == 0
        assert perf_main(["compare-journals", str(fast), str(scalar)]) == 0
        assert "journals agree" in capsys.readouterr().out

    def test_runner_rejects_bad_jobs(self, capsys):
        assert runner_main(["--jobs", "0", "--only", "fig4"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_compare_journals_sees_a_changed_summary_value(self, tmp_path, capsys):
        from repro.robust import RunJournal

        a = RunJournal(tmp_path / "a.jsonl")
        b = RunJournal(tmp_path / "b.jsonl")
        a.record("fig4", "ok", summary={"avg": 0.0116}, rows=[["syn-gcc", "1.16%"]])
        b.record("fig4", "ok", summary={"avg": 0.0119}, rows=[["syn-gcc", "1.16%"]])
        assert perf_main(["compare-journals", str(a.path), str(b.path)]) == 1
        assert "avg" in capsys.readouterr().out

    def test_compare_journals_ignore_attempts_flag(self, tmp_path, capsys):
        from repro.robust import RunJournal

        a = RunJournal(tmp_path / "a.jsonl")
        b = RunJournal(tmp_path / "b.jsonl")
        a.record("fig4", "ok", attempts=1)
        b.record("fig4", "ok", attempts=3)  # chaos redispatch inflation
        assert perf_main(
            ["compare-journals", str(a.path), str(b.path)]
        ) == 1
        assert perf_main(
            ["compare-journals", str(a.path), str(b.path), "--ignore-attempts"]
        ) == 0
        assert "journals agree" in capsys.readouterr().out

    def test_show_bench_shows_resilience(self, tmp_path, capsys):
        new = tmp_path / "v8.json"
        new.write_text(
            json.dumps(
                {
                    "schema": BENCH_SCHEMA,
                    "simulator": {"accesses": 1, "seconds": 0.1},
                    "memo": {
                        "hits": 1, "misses": 1, "hit_rate": 0.5,
                        "disk_failures": 4, "degraded": 2,
                        "breaker_trips": 1, "breaker_recoveries": 1,
                    },
                    "resilience": {
                        "workers_spawned": 4, "workers_replaced": 2,
                        "worker_crashes": 1, "worker_hangs": 1,
                        "redispatches": 2, "partial": False,
                    },
                }
            )
        )
        assert perf_main(["show-bench", str(new)]) == 0
        out = capsys.readouterr().out
        assert "resilience: 4 workers (2 replaced)" in out
        assert "breaker 1 trip(s)" in out

    def test_runner_chaos_requires_parallel_redundancy(self, capsys):
        assert runner_main(["--only", "fig4", "fig5", "--chaos", "1"]) == 2
        assert "--chaos" in capsys.readouterr().err
        assert (
            runner_main(["--only", "fig4", "--chaos", "1", "--jobs", "2"]) == 2
        )


class TestMonotonicElapsed:
    """Satellite bugfix: elapsed_s must survive wall-clock jumps.

    ``run_suite`` used to compute elapsed_s from ``time.time()``; an NTP
    step (or DST adjustment) mid-experiment warped the reported duration.
    All durations now come from ``time.perf_counter``.
    """

    def test_wall_clock_jump_does_not_warp_elapsed(self, monkeypatch):
        import repro.experiments.runner as runner_mod

        real_time = runner_mod.time.time
        calls = iter(range(1, 10_000))

        class JumpyTime:
            """time module facade: every time() call jumps the wall clock
            another hour forward; perf_counter stays real."""

            perf_counter = staticmethod(runner_mod.time.perf_counter)

            @staticmethod
            def time():
                return real_time() + 3600.0 * next(calls)

        monkeypatch.setattr(runner_mod, "time", JumpyTime)
        lab = Lab(scale=0.05, noise_sigma=0.0)
        outcomes = run_suite(lab, ["ablation-pruning"], out=io.StringIO())
        assert outcomes[0].status == "ok"
        # a wall-clock implementation would report >= 3600 here.
        assert 0.0 <= outcomes[0].elapsed_s < 300.0

    def test_journal_finished_at_is_epoch(self, tmp_path):
        import time

        from repro.robust import RunJournal

        journal = RunJournal(tmp_path / "j.jsonl")
        before = time.time()
        run_suite(
            Lab(scale=0.05, noise_sigma=0.0),
            ["ablation-pruning"],
            journal=journal,
            out=io.StringIO(),
        )
        entry = journal.entries()[0]
        assert before - 1 <= entry.finished_at <= time.time() + 1


@pytest.mark.parametrize("bad", [0, -3])
def test_telemetry_tolerates_any_jobs_value(bad):
    # Telemetry is a passive aggregator; validation lives in run_suite/CLI.
    assert Telemetry(jobs=bad).to_dict()["jobs"] == bad


class TestFleetSection:
    """bench.v7: the footprint-curve composition ("fleet") section."""

    def test_section_absent_without_curve_work(self):
        t = Telemetry(jobs=1, scale=0.1)
        assert t.to_dict()["fleet"] is None

    def test_section_aggregates_curve_counters(self):
        t = Telemetry(jobs=2, scale=0.1)
        t.merge(
            {
                "counters": {
                    "curve_passes": 20,
                    "curve_memo_hits": 9,
                    "curve_seconds": 1.5,
                    "fleet_cells": 111360,
                    "fleet_seconds": 2.0,
                }
            }
        )
        t.merge({"counters": {"curve_passes": 9, "fleet_cells": 640}})
        fleet = t.to_dict()["fleet"]
        assert fleet["cells"] == 112000
        assert fleet["curve_passes"] == 29
        assert fleet["curve_memo_hits"] == 9
        assert fleet["curve_seconds"] == 1.5
        assert fleet["cells_per_s"] == round(112000 / 2.0, 1)
        # The reuse ratio the fleet gate asserts: cells >> curve work.
        assert fleet["cells_per_curve"] == round(112000 / 38, 1)

    def test_section_survives_json(self):
        t = Telemetry(jobs=1, scale=1.0)
        t.merge(
            {"counters": {"curve_passes": 1, "fleet_cells": 10, "fleet_seconds": 0.0}}
        )
        raw = json.loads(json.dumps(t.to_dict()))
        assert raw["schema"] == BENCH_SCHEMA
        assert raw["fleet"]["cells"] == 10
        assert raw["fleet"]["cells_per_s"] == 0.0  # no time: rate degrades to 0
