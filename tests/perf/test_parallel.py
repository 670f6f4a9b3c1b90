"""Parallel execution parity (repro.perf.parallel + runner --jobs).

The acceptance contract: a ``--jobs N`` suite run produces byte-identical
outcomes, journal entries, and report text to the serial run, modulo
timing fields — including under injected failures, retries, and resume.
"""

import io
import os
import re
import signal

import numpy as np
import pytest

from repro.cache import PAPER_L1I, simulate
from repro.experiments import Lab
from repro.experiments.runner import run_suite
from repro.locality.footprint import FootprintCurve
from repro.perf import (
    CellPool,
    SimMemo,
    TraceStore,
    compare_journal_outcomes,
    memoized_cells,
    rebuild_error,
)
from repro.perf import parallel
from repro.perf.parallel import CELL_KINDS, dispatch
from repro.robust import ProfileError, RunJournal, SimulationError

FAST = "ablation-optimal-gap"
FAST2 = "ablation-pruning"
IDS = [FAST, FAST2]
COUNTERS = ("store_bytes_shipped", "store_bytes_mapped", "pool_fanouts", "pool_reuses")
#: the rows of the cell table that keep their results in the memo.
MEMOIZED = ("histogram", "stats")


def _strip_timings(text: str) -> str:
    return re.sub(r"\[\d+\.\d+s(, \d+ attempt\(s\))?\]", "[T]", text)


def _run(tmp_path, tag, *, jobs, **kwargs):
    lab = Lab(scale=0.05, noise_sigma=0.0)
    journal = RunJournal(tmp_path / f"{tag}.jsonl")
    out = io.StringIO()
    outcomes = run_suite(
        lab, IDS, journal=journal, out=out, jobs=jobs, keep_going=True, **kwargs
    )
    return outcomes, journal, out.getvalue()


class TestSuiteParity:
    def test_parallel_matches_serial(self, tmp_path):
        serial, js, text_s = _run(tmp_path, "serial", jobs=1)
        parallel, jp, text_p = _run(tmp_path, "parallel", jobs=2)
        assert _strip_timings(text_s) == _strip_timings(text_p)
        assert [o.status for o in serial] == [o.status for o in parallel]
        assert [o.result.to_text() for o in serial] == [
            o.result.to_text() for o in parallel
        ]
        assert compare_journal_outcomes(
            [vars(e) for e in js.entries()], [vars(e) for e in jp.entries()]
        ) == []
        # Both paths journal the outcome itself, not just the status.
        for entries in (js.entries(), jp.entries()):
            assert [e.rows for e in entries] == [o.result.rows for o in serial]
            assert all(e.summary is not None for e in entries)

    def test_parallel_failure_parity(self, tmp_path):
        serial, js, text_s = _run(tmp_path, "serial", jobs=1, inject_fault=FAST)
        parallel, jp, text_p = _run(tmp_path, "par", jobs=2, inject_fault=FAST)
        assert _strip_timings(text_s) == _strip_timings(text_p)
        assert isinstance(parallel[0].error, SimulationError)
        assert str(parallel[0].error) == str(serial[0].error)
        assert js.entries()[0].error == jp.entries()[0].error

    def test_parallel_stops_at_first_failure_without_keep_going(self, tmp_path):
        lab = Lab(scale=0.05, noise_sigma=0.0)
        outcomes = run_suite(
            lab, IDS, inject_fault=FAST, out=io.StringIO(), jobs=2
        )
        assert [o.exp_id for o in outcomes] == [FAST]
        assert outcomes[0].status == "failed"

    def test_parallel_resume_skips_completed(self, tmp_path):
        lab = Lab(scale=0.05, noise_sigma=0.0)
        journal = RunJournal(tmp_path / "resume.jsonl")
        run_suite(
            lab, IDS, journal=journal, keep_going=True,
            inject_fault=FAST2, out=io.StringIO(), jobs=2,
        )
        second = run_suite(
            lab, IDS, journal=journal, keep_going=True, resume=True,
            out=io.StringIO(), jobs=2,
        )
        by_id = {o.exp_id: o for o in second}
        assert by_id[FAST].status == "skipped"
        assert by_id[FAST2].status == "ok"
        assert journal.completed() == {FAST, FAST2}

    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            run_suite(Lab(scale=0.05), [FAST], jobs=0, out=io.StringIO())


class TestPrecomputeSolo:
    """Cell-level fan-out inside the Lab (satellite cross-check)."""

    CELLS = [
        ("syn-gcc", "baseline", "hw"),
        ("syn-gcc", "baseline", "sim"),
        ("syn-mcf", "baseline", "hw"),
        ("syn-mcf", "baseline", "sim"),
    ]

    def test_parallel_cells_match_serial_solo_miss(self):
        fanned = Lab(scale=0.05, jobs=2)
        fanned.precompute_solo(self.CELLS)
        serial = Lab(scale=0.05)
        for name, layout, channel in self.CELLS:
            assert fanned.solo_miss(name, layout, channel) == serial.solo_miss(
                name, layout, channel
            ), (name, layout, channel)

    def test_serial_precompute_equals_lazy(self):
        eager = Lab(scale=0.05)
        eager.precompute_solo(self.CELLS)
        lazy = Lab(scale=0.05)
        for cell in self.CELLS:
            assert eager.solo_miss(*cell) == lazy.solo_miss(*cell)

    def test_rejects_unknown_channel(self):
        with pytest.raises(ValueError, match="unknown channel"):
            Lab(scale=0.05).precompute_solo([("syn-gcc", "baseline", "spectre")])


class TestMemoizedCells:
    """The one memoized fan-out path (memo -> ship -> dispatch -> store)
    that the Lab precomputes and the compiler driver share."""

    @staticmethod
    def _oracle(kind, lines):
        from repro.cache import stack_distance_histogram

        if kind == "stats":
            return (lines, PAPER_L1I, True), simulate(lines, PAPER_L1I, prefetch=True)
        n_sets = PAPER_L1I.n_sets
        return (lines, n_sets), stack_distance_histogram(lines, n_sets)

    @pytest.mark.parametrize("kind", MEMOIZED)
    def test_matches_serial_then_replays_without_dispatch(self, kind, tmp_path):
        rng = np.random.default_rng(21)
        streams = [rng.integers(0, 700, 3000) for _ in range(4)]
        cells, oracle = zip(*(self._oracle(kind, s) for s in streams))
        store = TraceStore(tmp_path / "store")
        counters = dict.fromkeys(COUNTERS, 0)
        with CellPool(2, store=store) as pool:
            memo = SimMemo(tmp_path / "memo")
            first, missed = memoized_cells(
                kind, list(cells), memo=memo, store=store,
                pool=lambda: pool, counters=counters,
            )
            assert missed == [0, 1, 2, 3]
            assert (memo.hits, memo.misses) == (0, 4)
            assert pool.maps == counters["pool_fanouts"] == 1
            # Refs crossed the process boundary, not the streams.
            assert 0 < counters["store_bytes_shipped"] < counters["store_bytes_mapped"]

            def no_pool():
                raise AssertionError("an all-hit call must not dispatch")

            replay = SimMemo(tmp_path / "memo")
            second, missed = memoized_cells(
                kind, list(cells), memo=replay, store=store,
                pool=no_pool, counters=counters,
            )
            assert missed == []
            assert (replay.hits, replay.misses) == (4, 0)
            assert pool.maps == counters["pool_fanouts"] == 1
        assert list(first) == list(second) == list(oracle)

    def test_empty_map_counts_no_fanout(self):
        with CellPool(2) as pool:
            assert pool.map(len, []) == []
            assert pool.maps == 0 and pool._executor is None

    def test_all_hit_precompute_builds_no_pool(self, tmp_path):
        """Regression: a warm precompute whose every cell hits the memo
        must neither spawn a pool nor count a fan-out."""
        cells = [("syn-gcc", "baseline", "hw"), ("syn-mcf", "baseline", "hw")]
        with Lab(scale=0.05, jobs=2, memo=SimMemo(tmp_path)) as cold:
            cold.precompute_solo(cells)
        assert cold.counters["pool_fanouts"] == 1
        warm = Lab(scale=0.05, jobs=2, memo=SimMemo(tmp_path))
        warm.precompute_solo(cells)
        assert (warm.memo.hits, warm.memo.misses) == (2, 0)
        assert warm.counters["pool_fanouts"] == 0
        assert warm._cell_pool is None
        for cell in cells:
            assert warm.solo_miss(*cell) == cold.solo_miss(*cell)

    def test_lab_layouts_replay_the_analysis_memo(self, tmp_path):
        """A second lab on the same memo dir replays every model analysis
        into the same layouts, and the ``analysis_*`` counts stay exact
        through ``Lab.layout``."""
        layouts = ("function-affinity", "function-trg", "bb-affinity", "bb-trg")
        first = Lab(scale=0.05, noise_sigma=0.0, memo=SimMemo(tmp_path))
        again = Lab(scale=0.05, noise_sigma=0.0, memo=SimMemo(tmp_path))
        for name in layouts:
            a = first.layout("syn-mcf", name).address_map
            b = again.layout("syn-mcf", name).address_map
            assert a.order == b.order and np.array_equal(a.starts, b.starts), name
        assert first.counters["analysis_passes"] == len(layouts)
        assert again.counters["analysis_passes"] == 0
        assert again.counters["analysis_memo_hits"] == len(layouts)
        for lab in (first, again):
            assert lab.counters["analysis_cells"] == len(layouts)


def _serial(kind, cell):
    """What the cell computes, by the library's serial entry points."""
    from repro.cache import stack_distance_histogram
    from repro.locality.footprint import footprint_curve

    if kind == "stats":
        lines, cfg, prefetch = cell
        return simulate(lines, cfg, prefetch=prefetch)
    if kind == "histogram":
        return stack_distance_histogram(*cell)
    if kind == "curve":
        return footprint_curve(cell[0])
    return Lab(**cell[0]).footprint(cell[1], "baseline")


def _comparable(result):
    """The comparable part of a result: a recipe cell's curve (its
    telemetry carries timings), a curve's exact numbers."""
    if isinstance(result, tuple):
        result = result[0]
    if isinstance(result, FootprintCurve):
        return (result.n, result.m, result.fp.tobytes())
    return result


class TestCellTable:
    """Every row of the cell table computes the same result serially in
    this process, across a two-worker pool, and with a trace store."""

    KINDS = ("curve", "histogram", "recipe", "stats")

    def test_table_has_every_row(self):
        assert sorted(CELL_KINDS) == list(self.KINDS)
        assert sorted(k for k, row in CELL_KINDS.items() if row.key) == list(MEMOIZED)

    @staticmethod
    def _cells(kind):
        if kind == "recipe":
            config = Lab(scale=0.05).spawn_config()
            return [(config, name) for name in ("syn-mcf", "syn-gcc")]
        rng = np.random.default_rng(3)
        streams = [rng.integers(0, 600, 4000) for _ in range(5)]
        if kind == "stats":
            return [(lines, PAPER_L1I, bool(i % 2)) for i, lines in enumerate(streams)]
        if kind == "histogram":
            return [(lines, 1 << (i % 3 + 5)) for i, lines in enumerate(streams)]
        return [(lines,) for lines in streams]

    @pytest.mark.parametrize("kind", KINDS)
    def test_row_matches_serial(self, kind, tmp_path, monkeypatch):
        cells = self._cells(kind)
        want = [_comparable(_serial(kind, cell)) for cell in cells]
        monkeypatch.setattr(parallel, "_CELL_STORE", None)
        in_process = [CELL_KINDS[kind].worker(cell) for cell in cells]
        counters = dict.fromkeys(COUNTERS, 0)
        with CellPool(2) as pool:
            pooled = dispatch(kind, cells, pool=lambda: pool, counters=counters)
        store = TraceStore(tmp_path)
        if kind != "recipe":  # a recipe ships no stream
            cells = [(store.ref(lines), *params) for lines, *params in cells]
        with CellPool(2, store=store) as pool:
            stored = dispatch(kind, cells, pool=lambda: pool, counters=counters)
        assert counters["pool_fanouts"] == 2
        for results in (in_process, pooled, stored):
            assert [_comparable(r) for r in results] == want

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_row_dispatches_nothing(self, kind):
        def no_pool():
            raise AssertionError("no cell, no pool")

        counters = dict.fromkeys(COUNTERS, 0)
        assert dispatch(kind, [], pool=no_pool, counters=counters) == []
        if kind != "recipe":
            assert memoized_cells(
                kind, [], memo=None, store=None, pool=no_pool, counters=counters
            ) == ([], [])
        assert counters["pool_fanouts"] == 0


class TestWorkerBreaker:
    """Regression: a configured ``breaker_config`` must reach the worker's
    SimMemo.

    Experiment workers (:class:`~repro.robust.supervisor.SupervisedPool`)
    build their lab through ``_init_experiment_worker``; a breaker
    dropped on the way would leave the memo disk tier guarded by a
    default breaker instead of the configured one.  The probe reads the
    breaker off the worker lab's own SimMemo.
    """

    def test_worker_memo_carries_configured_breaker(self, tmp_path, monkeypatch):
        from repro.perf import parallel

        monkeypatch.setattr(parallel, "_WORKER_LAB", None)
        lab = Lab(scale=0.05, noise_sigma=0.0, kernel_backend="scalar")
        parallel._init_experiment_worker(
            lab.spawn_config(),
            str(tmp_path / "memo"),
            breaker_config={"failure_threshold": 7, "reset_after_s": 11.0},
        )
        worker = parallel._WORKER_LAB
        breaker = worker.memo.breaker
        assert (breaker.failure_threshold, breaker.reset_after_s) == (7, 11.0)
        assert worker.jobs == 1
        assert worker.backend.name == "scalar"


def _crashy_cell(cell):
    """Log one execution, then SIGKILL the worker on the marked cell.

    The parent-pid guard keeps the serial recompute path (which runs
    this same function in the parent) from killing the test process.
    """
    idx, log_path, kill_idx, parent_pid = cell
    with open(log_path, "a") as fh:  # O_APPEND: atomic small writes
        fh.write(f"{idx}\n")
        fh.flush()
        os.fsync(fh.fileno())
    if idx == kill_idx and os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return idx * 2


def _executions(log_path) -> list[int]:
    with open(log_path) as fh:
        return [int(line) for line in fh.read().split()]


class TestBrokenPoolRecomputesOnlyLostCells:
    """Regression: a pool broken mid-map must not discard completed work.

    The old fallback recomputed *every* cell serially; with per-batch
    futures, results finished before the crash are kept and only the
    lost cells are recomputed.
    """

    def test_cell_pool_recovers_and_respawns(self, tmp_path):
        log = tmp_path / "runs.log"
        log.touch()
        cells = [(i, str(log), 0, os.getpid()) for i in range(8)]
        with CellPool(2) as pool:
            results = pool.map(_crashy_cell, cells)
            assert results == [i * 2 for i in range(8)]
            assert pool.broken_pools == 1
            assert 1 <= pool.recomputed <= len(cells)
            # Every cell executed somewhere; none more than twice.
            runs = _executions(log)
            assert {i for i in runs} == set(range(8))
            assert all(runs.count(i) <= 2 for i in range(8))
            # The pool respawns workers and keeps serving maps.
            clean = [(i, str(log), -1, os.getpid()) for i in range(4)]
            assert pool.map(_crashy_cell, clean) == [i * 2 for i in range(4)]


class TestCellPoolReuse:
    def test_fanouts_share_one_executor(self):
        rng = np.random.default_rng(11)
        cells = [(rng.integers(0, 600, 2000), PAPER_L1I, False) for _ in range(4)]
        counters = dict.fromkeys(COUNTERS, 0)
        with CellPool(2) as pool:
            first = dispatch("stats", cells, pool=lambda: pool, counters=counters)
            second = dispatch("stats", cells, pool=lambda: pool, counters=counters)
        assert first == second == [_serial("stats", cell) for cell in cells]
        assert pool.maps == counters["pool_fanouts"] == 2
        # The second fan-out reused the warm workers.
        assert pool.reuses == counters["pool_reuses"] == 1

    def test_jobs_one_stays_serial(self):
        with CellPool(1) as pool:
            assert pool.map(len, [[1, 2], [3]]) == [2, 1]
            assert pool._executor is None  # never spawned workers


class TestRebuildError:
    def test_subclass_context_and_rendering_survive(self):
        original = ProfileError(
            "bad trace", stage="prepare", program="syn-gcc", defect="float dtype"
        )
        payload = {
            "type": "ProfileError",
            "dict": original.to_dict(),
            "rendered": str(original),
        }
        rebuilt = rebuild_error(payload)
        assert isinstance(rebuilt, ProfileError)
        assert str(rebuilt) == str(original)
        assert rebuilt.stage == "prepare"
        assert rebuilt.program == "syn-gcc"

    def test_unknown_type_falls_back_to_simulation_error(self):
        rebuilt = rebuild_error({"type": "Exotic", "dict": {"message": "x"}})
        assert isinstance(rebuilt, SimulationError)


class TestCurveCells:
    def test_results_identical_to_serial(self):
        from repro.locality.footprint import footprint_curve
        from repro.perf.parallel import curve_cells

        rng = np.random.default_rng(13)
        cells = [(rng.integers(0, 500, 3000),) for _ in range(5)]
        with CellPool(2) as pool:
            parallel = curve_cells(cells, pool=pool)
        serial = [footprint_curve(lines) for (lines,) in cells]
        assert len(parallel) == len(serial)
        for got, ref in zip(parallel, serial):
            assert got.n == ref.n and got.m == ref.m
            assert (got.fp == ref.fp).all()  # bit-identical across the pool

    def test_store_ref_cells_resolve(self, tmp_path):
        from repro.locality.footprint import footprint_curve
        from repro.perf import TraceStore
        from repro.perf.parallel import curve_cells

        rng = np.random.default_rng(14)
        store = TraceStore(tmp_path)
        traces = [rng.integers(0, 500, 3000) for _ in range(3)]
        cells = [(store.ref(t),) for t in traces]
        with CellPool(2, store=store) as pool:
            got = curve_cells(cells, pool=pool)
        for curve, t in zip(got, traces):
            ref = footprint_curve(t)
            assert (curve.fp == ref.fp).all()

    def test_shared_pool_and_empty(self):
        from repro.perf.parallel import curve_cells

        assert curve_cells([]) == []
        rng = np.random.default_rng(15)
        cells = [(rng.integers(0, 200, 1000),) for _ in range(3)]
        with CellPool(2) as pool:
            first = curve_cells(cells, pool=pool)
            second = curve_cells(cells, pool=pool)
        for a, b in zip(first, second):
            assert (a.fp == b.fp).all()
        assert pool.maps == 2
