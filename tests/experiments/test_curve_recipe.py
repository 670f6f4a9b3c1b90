"""Recipe-keyed baseline curves: a warm Lab reads them without building.

The contract under test: a baseline footprint curve is stored once, under
a key naming how its stream is made (the ref run's bundle key, the
layout, the line size and the stream dtype), so a lab whose memo holds
it answers without building the module, laying it out or fetching the
stream; changing any input of the recipe misses; optimized layouts stay
keyed by their stream's content.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cache.config import PAPER_L1I
from repro.engine import instrument
from repro.engine.instrument import bundle_key
from repro.experiments import BASELINE, Lab
from repro.experiments import pipeline
from repro.perf.memo import SimMemo, curve_key, recipe_curve_key
from repro.workloads import ALL_PROGRAMS, get_program

#: small enough that every run sits at the Lab's block-budget floor.
SCALE = 0.01


def refuse_building(monkeypatch) -> None:
    """Make any module build, layout or fetch from the Lab fail."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"built {args[:1]} on a warm lab")

    for name in ("build_suite_program", "build_layout", "fetch_lines"):
        monkeypatch.setattr(pipeline, name, refuse)


def entries(memo: SimMemo) -> list[str]:
    return sorted(p.stem for p in memo.cache_dir.glob("*.npz"))


def assert_same_curve(got, want):
    assert (got.n, got.m) == (want.n, want.m)
    assert got.fp.dtype == want.fp.dtype and np.array_equal(got.fp, want.fp)


def test_warm_lab_with_every_baseline_curve_builds_nothing(tmp_path, monkeypatch):
    cells = [(name, BASELINE) for name in ALL_PROGRAMS]
    fill = Lab(scale=SCALE, memo=SimMemo(tmp_path))
    want = {cell: fill.footprint(*cell) for cell in cells}
    assert fill.counters["curve_passes"] == len(cells)
    assert (fill.memo.hits, fill.memo.misses) == (0, len(cells))

    refuse_building(monkeypatch)
    # The fan-out path and the serial path share one lookup.
    for jobs in (2, 1):
        warm = Lab(scale=SCALE, jobs=jobs, memo=SimMemo(tmp_path))
        warm.precompute_footprints(cells)
        for cell in cells:
            assert_same_curve(warm.footprint(*cell), want[cell])
        assert warm.counters["curve_memo_hits"] == len(cells)
        assert warm.counters["curve_passes"] == 0
        assert (warm.memo.hits, warm.memo.misses) == (len(cells), 0)


def test_baseline_curve_is_stored_once_under_its_recipe(tmp_path):
    lab = Lab(scale=SCALE, memo=SimMemo(tmp_path))
    curve = lab.footprint("syn-mcf", BASELINE)
    spec = lab.program("syn-mcf").prog.spec
    key = recipe_curve_key(
        bundle_key(spec, spec.ref_input()), BASELINE, PAPER_L1I.line_bytes, np.int32
    )
    assert entries(lab.memo) == [key]
    assert_same_curve(SimMemo(tmp_path).get_curve(key), curve)
    # Not under the stream's content key as well.
    assert curve_key(lab.lines("syn-mcf", BASELINE)) != key


def test_optimized_layouts_stay_on_stream_keys(tmp_path):
    """An optimized stream also depends on repro.core and the optimizer
    config, which no recipe key covers: its curve is content-keyed."""
    layout = "function-affinity"
    lab = Lab(scale=SCALE, memo=SimMemo(tmp_path))
    curve = lab.footprint("syn-mcf", layout)
    spec = lab.program("syn-mcf").prog.spec
    recipe = recipe_curve_key(
        bundle_key(spec, spec.ref_input()), layout, PAPER_L1I.line_bytes, np.int32
    )
    stored = SimMemo(tmp_path)
    assert_same_curve(stored.get_curve(curve_key(lab.lines("syn-mcf", layout))), curve)
    assert stored.get_curve(recipe) is None


def fill_then(tmp_path, **lab_kwargs) -> Lab:
    """Store syn-mcf's baseline curve at SCALE, then ask a lab built with
    ``lab_kwargs`` for it; returns that lab."""
    Lab(scale=SCALE, memo=SimMemo(tmp_path)).footprint("syn-mcf", BASELINE)
    lab = Lab(**{"scale": SCALE, "memo": SimMemo(tmp_path), **lab_kwargs})
    lab.footprint("syn-mcf", BASELINE)
    return lab


class TestRecipeCurveKey:
    def test_same_recipe_hits(self, tmp_path):
        lab = fill_then(tmp_path)
        assert (lab.memo.hits, lab.memo.misses) == (1, 0)

    def test_changed_salt_misses(self, tmp_path, monkeypatch):
        Lab(scale=SCALE, memo=SimMemo(tmp_path)).footprint("syn-mcf", BASELINE)
        monkeypatch.setattr(instrument, "code_salt", lambda: "f" * 64)
        lab = Lab(scale=SCALE, memo=SimMemo(tmp_path))
        lab.footprint("syn-mcf", BASELINE)
        assert (lab.memo.hits, lab.memo.misses) == (0, 1)
        assert lab.counters["curve_passes"] == 1
        assert len(entries(lab.memo)) == 2

    def test_changed_scale_misses(self, tmp_path):
        """A scale whose budgets clear the block floor is a different
        scaled WorkloadSpec; one that stays on the floor is not."""
        assert (fill_then(tmp_path, scale=0.05).memo.misses) == 1
        assert (fill_then(tmp_path, scale=SCALE / 2).memo.hits) == 1

    def test_changed_line_bytes_misses(self, tmp_path):
        lab = fill_then(tmp_path, cache_cfg=replace(PAPER_L1I, line_bytes=32))
        assert (lab.memo.hits, lab.memo.misses) == (0, 1)

    def test_changed_spec_or_input_misses(self, tmp_path, monkeypatch):
        """The scaled WorkloadSpec and the ref InputSpec both reach the
        key through the ref run's bundle key."""
        Lab(scale=SCALE, memo=SimMemo(tmp_path)).footprint("syn-mcf", BASELINE)
        spec = get_program("syn-mcf").spec
        changed = replace(spec, p_cold=spec.p_cold / 2)
        monkeypatch.setattr(
            pipeline, "get_program", lambda name: replace(get_program(name), spec=changed)
        )
        lab = Lab(scale=SCALE, memo=SimMemo(tmp_path))
        assert lab._curve_lookup("syn-mcf", BASELINE)[0] is None
        monkeypatch.setattr(pipeline, "get_program", get_program)
        ref_input = type(spec).ref_input
        monkeypatch.setattr(type(spec), "ref_input", lambda s: replace(ref_input(s), seed=1))
        assert lab._curve_lookup("syn-mcf", BASELINE)[0] is None
        assert (lab.memo.hits, lab.memo.misses) == (0, 2)

    def test_every_key_input_changes_the_key(self):
        spec = get_program("syn-mcf").spec
        bundle = bundle_key(spec, spec.ref_input())
        key = recipe_curve_key(bundle, BASELINE, 64, np.int32)
        assert key == recipe_curve_key(bundle, BASELINE, 64, np.dtype("<i4"))
        others = [
            recipe_curve_key(bundle_key(spec, spec.test_input()), BASELINE, 64, np.int32),
            recipe_curve_key(bundle, "function-affinity", 64, np.int32),
            recipe_curve_key(bundle, BASELINE, 32, np.int32),
            recipe_curve_key(bundle, BASELINE, 64, np.int64),
        ]
        assert len({key, *others}) == 5

    @pytest.mark.parametrize("defect", ["garbage", "schema"])
    def test_bad_entry_is_recomputed(self, tmp_path, defect):
        lab = Lab(scale=SCALE, memo=SimMemo(tmp_path))
        want = lab.footprint("syn-mcf", BASELINE)
        (path,) = tmp_path.glob("*.npz")
        if defect == "garbage":
            path.write_bytes(b"not an npz")
        else:
            np.savez(path, schema=np.array("repro.perf.memo.curve.v0"), **want.to_arrays())
        again = Lab(scale=SCALE, memo=SimMemo(tmp_path))
        assert_same_curve(again.footprint("syn-mcf", BASELINE), want)
        assert again.counters["curve_passes"] == 1
        assert_same_curve(SimMemo(tmp_path).get_curve(path.stem), want)
