"""Kernel-backend registry tests (repro.perf.backends).

The contract under test: both tiers — ``numpy`` and the ``scalar``
oracle — produce **bit-identical** histograms, affinity coverage
tables, and TRGs; resolution is a plain lookup that rejects unknown
names; and backend choice never enters memo keys, so a memo populated
by one tier is a cache hit for the other.
"""

import numpy as np
import pytest

from repro.perf import parallel
from repro.perf.backends import _SCALAR, TIERS, resolve_backend


def _random_trace(rng, n_syms_hi=60, n_hi=900):
    return rng.integers(0, rng.integers(2, n_syms_hi), rng.integers(1, n_hi))


# -- registry + resolution ----------------------------------------------------


def test_registry_contents():
    assert TIERS == ("numpy", "scalar")  # the default first


def test_default_is_fastest_available():
    assert TIERS[0] == "numpy"
    assert resolve_backend(None).name == TIERS[0]


def test_unknown_backend_always_raises():
    for name in ("magic", "compiled"):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend(name)


def test_known_names_resolve_to_themselves_when_available():
    for name in TIERS:
        assert resolve_backend(name).name == name


def test_strict_keyword_is_inert():
    """Wrappers of ``resolve_backend`` forward ``strict=``; it must keep
    being accepted and must not change the answer."""
    assert resolve_backend("numpy", strict=True).name == "numpy"
    assert resolve_backend("numpy", strict=False).name == "numpy"


def test_runner_rejects_unknown_tier(capsys):
    from repro.experiments.runner import main

    with pytest.raises(SystemExit) as exc:
        main(["--kernel-backend", "compiled"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# -- cross-backend parity matrix ----------------------------------------------


@pytest.mark.parametrize("name", ("scalar", "numpy"))
def test_histogram_parity_matrix(name):
    backend = resolve_backend(name)
    rng = np.random.default_rng(2014_0731)
    for trial in range(8):
        n_sets = int(rng.choice([1, 2, 8, 128]))
        lines = rng.integers(0, rng.integers(4, 4000), rng.integers(0, 2500))
        assert backend.histogram(lines, n_sets) == _SCALAR.histogram(
            lines, n_sets
        ), (name, trial, n_sets)


@pytest.mark.parametrize("name", ("scalar", "numpy"))
def test_affinity_parity_matrix(name):
    backend = resolve_backend(name)
    rng = np.random.default_rng(51)
    for trial in range(6):
        trace = _random_trace(rng)
        w_max = int(rng.integers(1, 9))
        horizon = None if rng.random() < 0.5 else int(rng.integers(0, 60))
        got = backend.affinity(trace, w_max=w_max, time_horizon=horizon)
        want = _SCALAR.affinity(trace, w_max=w_max, time_horizon=horizon)
        assert got == want, (name, trial, w_max, horizon)


@pytest.mark.parametrize("name", ("scalar", "numpy"))
def test_trg_parity_matrix(name):
    backend = resolve_backend(name)
    rng = np.random.default_rng(77)
    for trial in range(6):
        trace = _random_trace(rng)
        window = None if rng.random() < 0.4 else int(rng.integers(1, 24))
        got = backend.trg(trace, window)
        want = _SCALAR.trg(trace, window)
        assert got == want, (name, trial, window)


# -- memo keys are backend-free -----------------------------------------------


def test_cross_backend_memo_hits(tmp_path):
    """A memo populated by one tier replays for the other tier.

    This pins the design decision that backend choice does NOT enter
    memo keys: results are bit-identical by contract, so keying on the
    tier would only fragment the cache.
    """
    from repro.perf.memo import SimMemo

    rng = np.random.default_rng(13)
    stream = rng.integers(0, 700, 3000)
    trace = _random_trace(rng)

    writer = SimMemo(tmp_path)
    hist = writer.histogram(stream, 128, backend=resolve_backend("numpy"))
    covg = writer.affinity_coverage(
        trace, w_max=4, backend=resolve_backend("numpy")
    )
    trg = writer.trg(trace, window_blocks=16, backend=resolve_backend("numpy"))
    assert writer.misses == 3

    # The other tier against the same directory: all hits, no kernels
    # run (the scalar oracle would be the one to notice).
    reader = SimMemo(tmp_path)
    assert reader.histogram(stream, 128, backend=_SCALAR) == hist
    assert reader.affinity_coverage(trace, w_max=4, backend=_SCALAR) == covg
    assert reader.trg(trace, window_blocks=16, backend=_SCALAR) == trg
    assert reader.misses == 0 and reader.hits == 3


# -- worker inheritance -------------------------------------------------------


def _worker_tier(_cell):
    import os

    return os.getpid(), parallel._cell_backend().name


def test_cell_pool_workers_resolve_requested_tier(monkeypatch):
    """Workers of a ``scalar`` pool run the ``scalar`` tier."""
    import os

    monkeypatch.setattr(parallel, "_CELL_BACKEND", None)
    monkeypatch.setattr(parallel, "_CELL_STORE", parallel._CELL_STORE)
    with parallel.CellPool(2, kernel_backend="scalar") as pool:
        out = pool.map(_worker_tier, list(range(8)))
    assert {name for _pid, name in out} == {"scalar"}
    assert any(pid != os.getpid() for pid, _name in out)
    # The worker initializer alone resolves the requested name.
    parallel._init_cell_worker(None, "scalar")
    assert parallel._cell_backend().name == "scalar"


def test_lab_threads_backend_through_spawn_config():
    from repro.experiments.pipeline import Lab

    lab = Lab(scale=0.05, kernel_backend="scalar")
    cfg = lab.spawn_config()
    assert cfg["kernel_backend"] == "scalar"
    assert lab.optimizer_config.kernel_backend == "scalar"
    # A worker reconstructs an identical lab from the picklable config.
    clone = Lab(**cfg)
    assert clone.kernel_backend == "scalar"
    assert clone.backend.name == "scalar"


class _SubLabBuilt(Exception):
    """Stops an experiment right after it builds its sub-lab."""


@pytest.mark.parametrize("module_name", ["exp_cache_sweep", "exp_staticlint"])
def test_sub_labs_inherit_the_tier(monkeypatch, module_name):
    """An experiment's sub-lab runs on the parent lab's kernel tier."""
    import importlib

    from repro.experiments.pipeline import Lab

    module = importlib.import_module(f"repro.experiments.{module_name}")
    built = []

    class SpyLab(Lab):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)
            raise _SubLabBuilt

    monkeypatch.setattr(module, "Lab", SpyLab)
    with pytest.raises(_SubLabBuilt):
        module.run(Lab(scale=0.05, kernel_backend="scalar"))
    (sub,) = built
    assert sub.kernel_backend == "scalar"
    assert sub.backend.name == "scalar"
    assert sub.optimizer_config.kernel_backend == "scalar"


def test_ablation_runs_on_the_lab_tier(monkeypatch):
    """The optimal-gap ablation's histograms and layouts use the lab's tier."""
    import dataclasses

    from repro.core import optimizers
    from repro.experiments.ablations import run_optimal_gap
    from repro.experiments.pipeline import Lab

    lab = Lab(scale=0.05, kernel_backend="numpy")
    calls = []
    histogram = lab.backend.histogram

    def counted(lines, n_sets):
        calls.append(n_sets)
        return histogram(lines, n_sets)

    lab.backend = dataclasses.replace(lab.backend, histogram=counted)
    tiers = []
    resolve = optimizers._backend

    def spy(config):
        tiers.append(config.kernel_backend)
        return resolve(config)

    monkeypatch.setattr(optimizers, "_backend", spy)
    result = run_optimal_gap(lab)
    # source order + two heuristics + every leaf permutation.
    assert len(calls) == 3 + 720
    assert tiers == ["numpy", "numpy"]
    assert result.summary == run_optimal_gap().summary


def test_driver_evaluates_on_the_configured_tier(monkeypatch, tiny_module):
    """The driver's evaluation stage runs one histogram per layout on the
    tier of its optimizer config, resolved when it evaluates, and the
    ``scalar`` oracle tier measures what the default tier does."""
    import dataclasses

    from repro.compiler import Driver
    from repro.core.optimizers import OptimizerConfig
    from repro.engine import InputSpec
    from repro.perf import backends

    calls = []

    def spy(name=None, *, strict=True):
        backend = resolve_backend(name, strict=strict)
        histogram = backend.histogram

        def counted(lines, n_sets):
            calls.append(backend.name)
            return histogram(lines, n_sets)

        return dataclasses.replace(backend, histogram=counted)

    test = InputSpec("test", seed=1, max_blocks=3000)
    ref = InputSpec("ref", seed=2, max_blocks=4000)
    optimizers = ["bb-affinity", "function-trg"]
    default = Driver(optimizers=optimizers).build(tiny_module, test, ref)
    monkeypatch.setattr(backends, "resolve_backend", spy)
    scalar = Driver(
        OptimizerConfig(kernel_backend="scalar"), optimizers=optimizers
    ).build(tiny_module, test, ref)
    # One histogram per layout, the baseline included, all on the scalar tier.
    assert calls == ["scalar"] * (len(optimizers) + 1)
    assert scalar.miss_ratios == default.miss_ratios
