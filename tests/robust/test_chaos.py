"""Tests for the process-level chaos harness (repro.robust.faults).

Covers the deterministic plan builder, the armed I/O fault budget the
memo tier consults, mid-run memo corruption, and the end-to-end soak
gate: a chaos run's journal outcomes must match a clean serial run.
"""

import io
import multiprocessing
import zipfile

import numpy as np
import pytest

from repro.experiments import Lab
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import EXPERIMENTS, run_suite
from repro.perf import SimMemo, compare_journal_outcomes
from repro.robust import ChaosPlan, RunJournal
from repro.robust.faults import (
    MEMO_READ,
    MEMO_WRITE,
    arm_io_faults,
    arm_io_slow,
    chaos_corrupt_memo,
    clear_io_faults,
    maybe_io_fault,
)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    clear_io_faults()
    yield
    clear_io_faults()


class TestChaosPlan:
    def test_deterministic_per_seed(self):
        ids = ["fig4", "fig5", "fig6", "fig7", "table1"]
        assert ChaosPlan.from_seed(7, ids) == ChaosPlan.from_seed(7, ids)
        assert ChaosPlan.from_seed(7, ids) != ChaosPlan.from_seed(8, ids)

    def test_targets_are_disjoint_and_in_range(self):
        ids = ["a", "b", "c", "d", "e"]
        for seed in range(20):
            plan = ChaosPlan.from_seed(seed, ids)
            assert set(plan.kill_exp_ids) <= set(ids)
            assert set(plan.hang_exp_ids) <= set(ids)
            assert not set(plan.kill_exp_ids) & set(plan.hang_exp_ids)
            assert plan.memo_read_faults >= 1
            assert plan.memo_write_faults >= 1
            assert 1 <= plan.corrupt_after < len(ids)

    def test_two_experiment_suite_still_gets_kill_and_hang(self):
        plan = ChaosPlan.from_seed(42, ["x", "y"])
        assert len(plan.kill_exp_ids) == 1
        assert len(plan.hang_exp_ids) == 1

    def test_describe_mentions_the_victims(self):
        plan = ChaosPlan.from_seed(1, ["a", "b", "c"])
        text = plan.describe()
        assert str(plan.seed) in text
        for victim in (*plan.kill_exp_ids, *plan.hang_exp_ids):
            assert victim in text


class TestIoFaultBudget:
    def test_armed_faults_fire_then_exhaust(self):
        arm_io_faults(MEMO_READ, 2)
        with pytest.raises(OSError):
            maybe_io_fault(MEMO_READ)
        with pytest.raises(OSError):
            maybe_io_fault(MEMO_READ)
        maybe_io_fault(MEMO_READ)  # budget spent: no-op

    def test_points_are_independent(self):
        arm_io_faults(MEMO_WRITE, 1)
        maybe_io_fault(MEMO_READ)  # unarmed point never raises
        with pytest.raises(OSError):
            maybe_io_fault(MEMO_WRITE)

    def test_slow_io_delays_without_raising(self):
        arm_io_slow(MEMO_READ, 1, 0.0)
        maybe_io_fault(MEMO_READ)  # consumed the slow budget, no error

    def test_clear_disarms_everything(self):
        arm_io_faults(MEMO_READ, 5)
        clear_io_faults()
        maybe_io_fault(MEMO_READ)


class TestMemoUnderFaults:
    def test_read_faults_strike_the_breaker_and_degrade(self, tmp_path):
        lines = np.arange(4000, dtype=np.int64) % 600
        from repro.cache import PAPER_L1I

        memo = SimMemo(tmp_path)
        first = memo.simulate(lines, PAPER_L1I)
        arm_io_faults(MEMO_READ, 3)
        reread = SimMemo(tmp_path)
        # Three strikes trip the (default threshold 3) breaker; every
        # lookup still answers correctly by recomputing.
        for _ in range(4):
            assert SimMemo(tmp_path).simulate(lines, PAPER_L1I) == first
        assert reread.breaker.trips == 0  # each memo owns its breaker

    def test_chaos_corrupt_memo_garbles_one_entry(self, tmp_path):
        np.savez(tmp_path / "aa.npz", schema=np.array("x"))
        np.savez(tmp_path / "bb.npz", schema=np.array("y"))
        victim = chaos_corrupt_memo(tmp_path, seed=3)
        assert victim is not None and victim.exists()
        with pytest.raises((ValueError, OSError, zipfile.BadZipFile)):
            np.load(victim, allow_pickle=False)["schema"]
        # Deterministic victim choice per seed.
        assert victim.name == chaos_corrupt_memo(tmp_path, seed=3).name

    def test_chaos_corrupt_memo_empty_dir_is_a_noop(self, tmp_path):
        assert chaos_corrupt_memo(tmp_path, seed=1) is None
        assert chaos_corrupt_memo(tmp_path / "absent", seed=1) is None

    def test_scrub_drops_the_corrupted_entry(self, tmp_path):
        from repro.cache import PAPER_L1I

        lines = np.arange(4000, dtype=np.int64) % 600
        memo = SimMemo(tmp_path)
        memo.simulate(lines, PAPER_L1I)
        memo.simulate(lines * 2 % 600, PAPER_L1I)
        chaos_corrupt_memo(tmp_path, seed=5)
        kept, dropped = SimMemo(tmp_path).scrub()
        assert (kept, dropped) == (1, 1)
        for path in tmp_path.iterdir():
            with np.load(path, allow_pickle=False) as npz:  # everything left is valid
                assert str(npz["schema"]).startswith("repro.perf.memo.")


def _toy_a(lab):
    return ExperimentResult("chaos-a", "toy a", summary={"v": 1.0})


def _toy_b(lab):
    return ExperimentResult("chaos-b", "toy b", summary={"v": 2.0})


def _toy_c(lab):
    return ExperimentResult("chaos-c", "toy c", summary={"v": 3.0})


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="soak test patches the experiment registry and relies on fork",
)
class TestChaosSoak:
    """The in-tree miniature of the CI soak gate: chaos journal outcomes
    must equal the clean serial run's."""

    IDS = ["chaos-a", "chaos-b", "chaos-c"]

    @pytest.fixture(autouse=True)
    def toy_registry(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "chaos-a", _toy_a)
        monkeypatch.setitem(EXPERIMENTS, "chaos-b", _toy_b)
        monkeypatch.setitem(EXPERIMENTS, "chaos-c", _toy_c)

    def test_outcome_parity_with_clean_run(self, tmp_path):
        from repro.perf.telemetry import Telemetry

        clean = RunJournal(tmp_path / "clean.jsonl")
        run_suite(
            Lab(scale=0.05, noise_sigma=0.0),
            self.IDS,
            journal=clean,
            keep_going=True,
            out=io.StringIO(),
        )

        memo_dir = tmp_path / "memo"
        chaos = ChaosPlan.from_seed(42, self.IDS)
        chaotic = RunJournal(tmp_path / "chaos.jsonl")
        telemetry = Telemetry(jobs=2)
        outcomes = run_suite(
            Lab(scale=0.05, noise_sigma=0.0, memo=SimMemo(memo_dir)),
            self.IDS,
            journal=chaotic,
            keep_going=True,
            out=io.StringIO(),
            jobs=2,
            telemetry=telemetry,
            chaos=chaos,
            hang_timeout_s=1.0,
        )
        assert all(o.status == "ok" for o in outcomes)
        # At least one worker was killed and one hang detected.
        assert telemetry.totals["resilience"]["worker_crashes"] >= 1
        assert telemetry.totals["resilience"]["worker_hangs"] >= 1
        assert telemetry.totals["resilience"]["partial"] is False
        diffs = compare_journal_outcomes(
            [vars(e) for e in clean.entries()],
            [vars(e) for e in chaotic.entries()],
            ignore=("attempts",),
        )
        assert diffs == []
