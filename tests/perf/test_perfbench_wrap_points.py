"""The traced benchmark run's wrap points exist where it looks them up.

``perfbench/spans.py`` times each layer by replacing a function or
method of the program, found by name, with a timing wrapper.  A rename
or deletion of any of those names makes every traced run crash, so this
test installs the wrappers in-process, runs a small traced pipeline and
removes them again.
"""

import importlib.util
from pathlib import Path

from repro.experiments import BASELINE, Lab
from repro.experiments import pipeline
from repro.perf import memo, parallel

SPANS = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrap_points():
    """A sample of the names ``install`` replaces, read where it finds them."""
    return (
        pipeline.simulate,
        pipeline.measure_solo,
        pipeline.footprint_curve,
        memo.footprint_curve,
        parallel.curve_cells,
        parallel.CellPool.map,
        memo.SimMemo.get_curve,
    )


def test_install_wraps_every_layer_and_close_restores_them():
    spans = _spans()
    originals = _wrap_points()
    rec = spans.SpanRecorder()
    try:
        spans.install(rec)
        assert all(now is not before for now, before in zip(_wrap_points(), originals))
        lab = Lab(scale=0.05, noise_sigma=0.0)
        lab.layout("syn-mcf", "function-trg")
        lab.solo_miss("syn-mcf", BASELINE, channel="hw")
        lab.corun_miss(("syn-mcf", BASELINE), ("syn-gcc", BASELINE), channel="sim")
        lab.footprint("syn-mcf", BASELINE)
    finally:
        rec.close()
    assert _wrap_points() == originals
    times = rec.inclusive_times()
    for layer in (
        "workloads.build",
        "engine.instrument",
        "engine.fetch",
        "core.trg_kernel",
        "core.trg_reduce",
        "core.layout",
        "cache.solo",
        "cache.corun",
        "locality.footprint",
    ):
        assert times.get(layer, 0.0) > 0, layer
    assert rec.counts["cache.corun_accesses"] > 0
