"""Cold fleet runs prepare their programs in the pool.

The contract under test: ``Lab.precompute_footprints`` sends the
baseline curve of every program the parent has not prepared to a pool
worker as a recipe cell ``(spawn_config, program)``, so a cold
``jobs=2`` fleet run builds and interprets nothing in the parent, and
its results equal the serial run's bit for bit with memo and store,
memo only, or neither.  A bad program raises the serial path's
``ProfileError``; a pool broken mid-map recomputes the lost cells in the
parent.  A lab makes a program's test run only when an optimizer asks
for it, so a fleet run never interprets the test input.
"""

import os
import signal

import numpy as np
import pytest

from repro.experiments import BASELINE, Lab
from repro.experiments import pipeline
from repro.fleet.simulator import run_fleet
from repro.perf.memo import SimMemo
from repro.perf.store import TraceStore
from repro.robust.errors import ProfileError

#: small enough that every run sits at the Lab's block-budget floor.
SCALE = 0.01

#: a fleet of a few models (fast, still several recipe cells per worker).
PROGRAMS = ("syn-mcf", "syn-sjeng", "syn-gcc", "syn-bzip2", "syn-lbm")
CELLS = [(name, BASELINE) for name in PROGRAMS]


def fleet_lab(tmp_path, jobs: int, backing: str) -> Lab:
    """A cold lab with fresh memo and store directories, as ``backing``
    asks (``"memo+store"``, ``"memo"`` or ``"none"``)."""
    memo = SimMemo(tmp_path / "memo") if "memo" in backing else None
    store = TraceStore(tmp_path / "store") if "store" in backing else None
    return Lab(scale=SCALE, jobs=jobs, memo=memo, store=store)


def small_fleet(lab: Lab):
    return run_fleet(
        lab,
        n_instances=2 * len(PROGRAMS),
        n_sockets=len(PROGRAMS),
        programs=list(PROGRAMS),
        matrix_capacities=4,
    )


def count_calls(monkeypatch, name: str) -> list:
    """Record each call of ``pipeline.<name>`` made in *this* process.

    A forked pool worker appends to its own copy of the list, so only
    the parent's calls show here.
    """
    calls: list = []
    original = getattr(pipeline, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


@pytest.mark.parametrize("backing", ["memo+store", "memo", "none"])
def test_pooled_fleet_equals_serial_fleet(tmp_path, backing):
    results, curves = {}, {}
    for jobs in (2, 1):
        with fleet_lab(tmp_path / f"jobs{jobs}", jobs, backing) as lab:
            out = small_fleet(lab).to_dict()
            out.pop("seconds")
            results[jobs] = out
            curves[jobs] = [lab.footprint(*cell) for cell in CELLS]
    assert results[2] == results[1]
    assert results[2]["curve_passes"] == len(PROGRAMS)
    for got, want in zip(curves[2], curves[1]):
        assert (got.n, got.m) == (want.n, want.m)
        assert got.fp.dtype == want.fp.dtype and np.array_equal(got.fp, want.fp)


def test_cold_pooled_fleet_prepares_nothing_in_the_parent(tmp_path, monkeypatch):
    builds = count_calls(monkeypatch, "build_suite_program")
    runs = count_calls(monkeypatch, "collect_trace")
    with fleet_lab(tmp_path, 2, "memo+store") as lab:
        small_fleet(lab)
        pool = lab.cell_pool()
        assert (pool.maps, pool.recomputed) == (1, 0)
        assert lab._programs == {}
        # The workers' telemetry is folded in: their interpreter runs
        # show as this lab's prepare time and store puts.
        assert lab.timings["prepare"] > 0 and lab.timings["fetch"] > 0
        assert lab.snapshot()["store"]["puts"] == len(PROGRAMS)
        assert lab.counters["store_bytes_mapped"] == 0
    assert (builds, runs) == ([], [])
    # A warm rerun answers from the memo: no pool, no build anywhere.
    with fleet_lab(tmp_path, 2, "memo+store") as warm:
        assert small_fleet(warm).curve_memo_hits == len(PROGRAMS)
        assert warm._cell_pool is None
    assert (builds, runs) == ([], [])


def test_prepared_program_ships_its_stream_not_its_recipe(tmp_path):
    """Misses whose programs the parent holds keep the stream path (two
    of them, so that map goes to the workers too)."""
    with fleet_lab(tmp_path, 2, "memo+store") as lab:
        lab.program("syn-mcf")
        lab.program("syn-sjeng")
        lab.precompute_footprints(CELLS)
        assert lab.counters["pool_fanouts"] == 2  # recipes, then the streams
        assert lab.counters["store_bytes_mapped"] > 0  # the two streams
        serial = Lab(scale=SCALE)
        for cell in CELLS:
            assert np.array_equal(lab.footprint(*cell).fp, serial.footprint(*cell).fp)


def test_serial_fleet_never_runs_the_test_input(tmp_path, monkeypatch):
    runs = count_calls(monkeypatch, "collect_trace")
    with fleet_lab(tmp_path, 1, "memo+store") as lab:
        small_fleet(lab)
    assert len(runs) == len(PROGRAMS)
    assert {spec.name for _module, spec in runs} == {"ref"}
    # An optimizer asks for the test run, once.
    lab.layout("syn-mcf", "function-affinity")
    lab.layout("syn-mcf", "bb-affinity")
    assert [spec.name for _module, spec in runs[len(PROGRAMS):]] == ["test"]


def _refuse_syn_gcc(monkeypatch) -> None:
    original = pipeline.build_suite_program

    def build(name, **kwargs):
        if name == "syn-gcc":
            raise RuntimeError("generator rejected syn-gcc")
        return original(name, **kwargs)

    monkeypatch.setattr(pipeline, "build_suite_program", build)


@pytest.mark.parametrize("backing", ["memo+store", "none"])
def test_bad_program_in_a_recipe_cell_raises_the_serial_error(tmp_path, monkeypatch, backing):
    _refuse_syn_gcc(monkeypatch)
    errors = {}
    for jobs in (1, 2):
        with fleet_lab(tmp_path / f"jobs{jobs}", jobs, backing) as lab:
            with pytest.raises(ProfileError) as info:
                lab.precompute_footprints(CELLS)
            errors[jobs] = info.value
    assert (errors[2].stage, errors[2].program) == ("prepare", "syn-gcc")
    assert type(errors[2]) is type(errors[1])
    assert str(errors[2]) == str(errors[1])
    assert errors[2].context == errors[1].context


def test_broken_pool_recomputes_lost_recipe_cells_in_the_parent(tmp_path, monkeypatch):
    parent = os.getpid()
    original = pipeline.build_suite_program

    def build(name, **kwargs):
        if name == "syn-bzip2" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(name, **kwargs)

    monkeypatch.setattr(pipeline, "build_suite_program", build)
    with fleet_lab(tmp_path, 2, "memo+store") as lab:
        lab.precompute_footprints(CELLS)
        pool = lab.cell_pool()
        assert pool.broken_pools == 1
        assert 1 <= pool.recomputed <= len(CELLS)
        assert lab.counters["curve_passes"] == len(CELLS)
        got = [lab.footprint(*cell) for cell in CELLS]
    serial = Lab(scale=SCALE)
    for cell, curve in zip(CELLS, got):
        assert np.array_equal(curve.fp, serial.footprint(*cell).fp)
