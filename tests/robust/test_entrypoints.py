"""Typed degradation at every public entry point.

Injected corruption at Driver.build and Lab must surface as a ReproError
subclass with stage/program context — never a raw KeyError / IndexError /
TypeError from pipeline internals."""

import pytest

from repro.compiler import Driver
from repro.compiler.__main__ import main as compiler_main
from repro.core import LAYOUTS
from repro.engine import InputSpec
from repro.experiments import BASELINE, Lab
from repro.robust import ProfileError, ReproError, SimulationError
from repro.robust import faults
from tests.conftest import build_tiny_module


def test_driver_build_on_corrupt_module_raises_profile_error(tmp_path):
    module = build_tiny_module()
    faults.break_module_terminator(module, gid=0)
    driver = Driver(optimizers=["function-trg"])
    with pytest.raises(ProfileError) as exc:
        driver.build(module, InputSpec("test", seed=1, max_blocks=1000))
    assert exc.value.stage == "instrument"
    assert exc.value.program == "tiny"
    assert exc.value.cause is not None


def test_driver_optimizer_blowup_is_simulation_error(tiny_module, monkeypatch):
    from repro.core import optimizers as core_optimizers

    def exploding(_module, _profile, _config, *, memo=None, stats=None):
        raise IndexError("index 999 is out of bounds")

    driver = Driver(optimizers=["function-trg"])
    monkeypatch.setitem(core_optimizers.LAYOUTS, "function-trg", exploding)
    with pytest.raises(SimulationError) as exc:
        driver.build(tiny_module, InputSpec("test", seed=1, max_blocks=1000))
    assert exc.value.stage == "optimize"
    assert exc.value.layout == "function-trg"
    assert isinstance(exc.value.cause, IndexError)


def test_lab_unknown_program_is_profile_error():
    lab = Lab(scale=0.05)
    with pytest.raises(ProfileError) as exc:
        lab.program("syn-does-not-exist")
    assert exc.value.stage == "prepare"
    assert exc.value.program == "syn-does-not-exist"


def test_compiler_cli_unknown_program_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        compiler_main(["syn-does-not-exist"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown suite program 'syn-does-not-exist'" in err
    assert "syn-mcf" in err  # names the known programs


@pytest.mark.parametrize("scale", ["0", "-0.5", "1.5"])
def test_compiler_cli_scale_out_of_range_is_usage_error(scale, capsys):
    with pytest.raises(SystemExit) as exc:
        compiler_main(["syn-mcf", "--scale", scale])
    assert exc.value.code == 2
    assert "--scale must be in (0, 1]" in capsys.readouterr().err


def test_lab_unknown_layout_is_simulation_error():
    lab = Lab(scale=0.05, noise_sigma=0.0)
    with pytest.raises(SimulationError) as exc:
        lab.layout("syn-mcf", "no-such-optimizer")
    assert exc.value.stage == "optimize"
    assert exc.value.layout == "no-such-optimizer"
    assert isinstance(exc.value.cause, KeyError)
    # The catalog's one lookup error names every known layout.
    for known in LAYOUTS:
        assert known in str(exc.value)


def test_lab_channel_validation_stays_value_error():
    """Config mistakes (not corruption) keep their original ValueError."""
    lab = Lab(scale=0.05, noise_sigma=0.0)
    with pytest.raises(ValueError, match="unknown channel"):
        lab.solo_miss("syn-mcf", BASELINE, channel="bogus")


def test_lab_measurements_still_work_after_typed_failure():
    """Isolation: one bad request must not poison the lab's caches."""
    lab = Lab(scale=0.05, noise_sigma=0.0)
    with pytest.raises(ReproError):
        lab.layout("syn-mcf", "no-such-optimizer")
    miss = lab.solo_miss("syn-mcf", BASELINE, channel="sim")
    assert miss.ratio >= 0


def test_corrupt_module_after_its_table_was_built_still_fails_instrument():
    """The fault lands after the build (which validated the module and so
    built its execution table) and still reaches the interpreter."""
    module = build_tiny_module()
    assert module.exec_table.n_blocks == module.n_blocks
    faults.break_module_terminator(module, gid=0)
    with pytest.raises(ProfileError) as exc:
        Driver(optimizers=["function-trg"]).build(
            module, InputSpec("test", seed=1, max_blocks=1000)
        )
    assert exc.value.stage == "instrument"
    assert isinstance(exc.value.cause, TypeError)
    assert "unknown terminator" in str(exc.value.cause)
