"""The synthetic SPEC CPU2006 stand-in suite (paper Sec. III-A, Table I,
Fig. 4).

29 named programs mirror the paper's benchmark set.  Parameters are chosen
so the *distribution* of instruction-cache behaviour echoes Fig. 4:

* most programs have hot footprints well under the 32 KB L1I and show
  near-zero solo miss ratios;
* a high-miss group (the paper's study candidates: gobmk, povray,
  perlbench, gcc, xalancbmk, gamess, tonto, sjeng, ...) has hot footprints
  around and above capacity;
* ``syn-mcf`` and ``syn-omnetpp`` fit solo but thrash when the shared
  cache halves their effective capacity — the co-run-sensitive programs
  the paper added to its study set despite low solo miss ratios.

The **study set** is the paper's Table I eight; the **probes** are
``syn-gcc`` and ``syn-gamess``.  The paper's compiler failed to apply BB
reordering to perlbench and povray ("N/A" in Table II); the suite records
that as ``bb_reorder_supported=False`` so the harness reproduces the
published table faithfully.

``data_cpi`` encodes each program's data intensity (memory-bound mcf high,
compute-bound sjeng low), which the timing model turns into the paper's
"large miss reduction, small speedup" relationship.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..ir.module import Module
from .generator import WorkloadSpec, build_program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from argparse import ArgumentParser

__all__ = [
    "SuiteProgram",
    "SUITE",
    "STUDY_PROGRAMS",
    "PROBE_PROGRAMS",
    "ALL_PROGRAMS",
    "get_program",
    "cli_program",
    "build",
    "scaled_spec",
]


@dataclass(frozen=True)
class SuiteProgram:
    """One named benchmark: generator parameters plus suite metadata."""

    spec: WorkloadSpec
    #: member of the 8-program study set (paper Table I)?
    study: bool = False
    #: usable as a contention probe (paper: gcc, gamess)?
    probe: bool = False
    #: the paper's BB-reordering pass errored on perlbench and povray.
    bb_reorder_supported: bool = True

    @property
    def name(self) -> str:
        return self.spec.name


def _spec(name: str, seed: int, **kw) -> WorkloadSpec:
    defaults = dict(
        work_blocks=9,
        hot_block_instr=(4, 14),
        cold_block_instr=(10, 30),
        p_cold=0.15,
        scramble_functions=0.8,
        scramble_blocks=0.5,
        test_blocks=120_000,
        ref_blocks=400_000,
    )
    defaults.update(kw)
    return WorkloadSpec(name=name, seed=seed, **defaults)


def _low_miss(name: str, seed: int, data_cpi: float, **kw) -> SuiteProgram:
    """A program whose hot path fits the cache comfortably."""
    params = dict(
        n_stages=5,
        leaves_per_stage=5,
        work_blocks=6,
        n_cold_functions=40,
        data_cpi=data_cpi,
        ref_blocks=250_000,
        test_blocks=80_000,
    )
    params.update(kw)
    return SuiteProgram(spec=_spec(name, seed, **params))


# ---------------------------------------------------------------------------
# The study set (paper Table I) and probes.
# ---------------------------------------------------------------------------

_STUDY: list[SuiteProgram] = [
    # perlbench: high solo miss, BB reordering unsupported in the paper.
    SuiteProgram(
        spec=_spec(
            "syn-perlbench", seed=401,
            n_stages=22, leaves_per_stage=16, n_cold_functions=60,
            phase_stage_split=True, data_cpi=0.45,
        ),
        study=True, bb_reorder_supported=False,
    ),
    # gcc: biggest code, moderate miss; also a probe program.
    SuiteProgram(
        spec=_spec(
            "syn-gcc", seed=403,
            n_stages=26, leaves_per_stage=18, n_cold_functions=160,
            cold_function_blocks=10, phase_stage_split=True, data_cpi=0.55,
        ),
        study=True, probe=True,
    ),
    # mcf: near-zero solo miss but thrashes under sharing; memory bound.
    SuiteProgram(
        spec=_spec(
            "syn-mcf", seed=429,
            n_stages=8, leaves_per_stage=8, n_cold_functions=12,
            cold_function_blocks=5, data_cpi=1.0,
        ),
        study=True,
    ),
    # gobmk: highest solo miss in the study set; strongly phase structured
    # (the paper's biggest function-affinity miss reduction).
    SuiteProgram(
        spec=_spec(
            "syn-gobmk", seed=445,
            n_stages=30, leaves_per_stage=20, n_cold_functions=70,
            phase_stage_split=True, data_cpi=0.55,
        ),
        study=True,
    ),
    # povray: high miss, profile-sensitive (the paper saw a hardware-counter
    # miss *increase* under function affinity); BB reordering unsupported.
    SuiteProgram(
        spec=_spec(
            "syn-povray", seed=453,
            n_stages=24, leaves_per_stage=17, n_cold_functions=50,
            phase_stage_split=True, leaf_phase_bias=0.8, data_cpi=0.5,
        ),
        study=True, bb_reorder_supported=False,
    ),
    # sjeng: modest solo miss, compute bound; the paper's function-TRG
    # standout (+10.23% co-run).
    SuiteProgram(
        spec=_spec(
            "syn-sjeng", seed=458,
            n_stages=16, leaves_per_stage=12, n_cold_functions=35,
            phase_stage_split=True, data_cpi=0.25,
        ),
        study=True,
    ),
    # omnetpp: low solo miss, extreme co-run sensitivity.
    SuiteProgram(
        spec=_spec(
            "syn-omnetpp", seed=471,
            n_stages=14, leaves_per_stage=12, n_cold_functions=40,
            p_cold=0.10, data_cpi=0.6,
        ),
        study=True,
    ),
    # xalancbmk: largest static size, moderate miss.
    SuiteProgram(
        spec=_spec(
            "syn-xalancbmk", seed=483,
            n_stages=24, leaves_per_stage=16, n_cold_functions=220,
            cold_function_blocks=12, phase_stage_split=True, data_cpi=0.55,
        ),
        study=True,
    ),
]

# gamess: Fortran in the paper (not optimized) but a high-contention probe.
_GAMESS = SuiteProgram(
    spec=_spec(
        "syn-gamess", seed=416,
        n_stages=20, leaves_per_stage=16, n_cold_functions=60,
        data_cpi=0.35,
    ),
    probe=True,
)

# ---------------------------------------------------------------------------
# The remaining Fig. 4 programs (low to moderate miss ratios).
# ---------------------------------------------------------------------------

_OTHERS: list[SuiteProgram] = [
    _GAMESS,
    # tonto: Fortran, high miss (excluded from the study set like gamess).
    SuiteProgram(
        spec=_spec(
            "syn-tonto", seed=465,
            n_stages=18, leaves_per_stage=14, n_cold_functions=50, data_cpi=0.4,
        ),
    ),
    _low_miss("syn-bwaves", 410, 0.57, n_stages=3, leaves_per_stage=3),
    _low_miss("syn-hmmer", 456, 0.21, n_stages=6, leaves_per_stage=5),
    _low_miss("syn-bzip2", 1401, 0.33, n_stages=4, leaves_per_stage=4),
    _low_miss("syn-h264ref", 464, 0.24, n_stages=7, leaves_per_stage=6),
    _low_miss("syn-zeusmp", 434, 0.48, n_stages=3, leaves_per_stage=4),
    _low_miss("syn-gromacs", 435, 0.30, n_stages=5, leaves_per_stage=4),
    _low_miss("syn-namd", 444, 0.27, n_stages=3, leaves_per_stage=3),
    _low_miss("syn-cactusADM", 436, 0.51, n_stages=4, leaves_per_stage=3),
    _low_miss("syn-milc", 433, 0.60, n_stages=3, leaves_per_stage=4),
    _low_miss("syn-dealII", 447, 0.36, n_stages=8, leaves_per_stage=6),
    _low_miss("syn-sphinx3", 482, 0.39, n_stages=6, leaves_per_stage=5),
    _low_miss("syn-wrf", 481, 0.45, n_stages=7, leaves_per_stage=5),
    _low_miss("syn-soplex", 450, 0.54, n_stages=5, leaves_per_stage=5),
    _low_miss("syn-lbm", 470, 0.66, n_stages=2, leaves_per_stage=3),
    _low_miss("syn-libquantum", 462, 0.63, n_stages=2, leaves_per_stage=2),
    _low_miss("syn-astar", 473, 0.48, n_stages=4, leaves_per_stage=4),
    _low_miss("syn-GemsFDTD", 459, 0.57, n_stages=4, leaves_per_stage=4),
    _low_miss("syn-calculix", 454, 0.42, n_stages=5, leaves_per_stage=4),
    _low_miss("syn-leslie3d", 437, 0.54, n_stages=3, leaves_per_stage=3),
]

#: all 29 programs, keyed by name.
SUITE: dict[str, SuiteProgram] = {
    p.name: p for p in _STUDY + _OTHERS
}
if len(SUITE) != 29:  # pragma: no cover - suite definition invariant
    raise AssertionError(f"expected 29 programs, have {len(SUITE)}")

#: the paper's Table I study set, in table order.
STUDY_PROGRAMS: list[str] = [p.name for p in _STUDY]

#: contention probes (paper: 403.gcc and 416.gamess).
PROBE_PROGRAMS: list[str] = ["syn-gcc", "syn-gamess"]

#: every program name, suite order.
ALL_PROGRAMS: list[str] = list(SUITE)


def get_program(name: str) -> SuiteProgram:
    """Look up a suite program; accepts names with or without ``syn-``."""
    if name in SUITE:
        return SUITE[name]
    alt = f"syn-{name}"
    if alt in SUITE:
        return SUITE[alt]
    raise KeyError(f"unknown suite program {name!r}")


def cli_program(parser: ArgumentParser, name: str) -> SuiteProgram:
    """:func:`get_program` for a command line: an unknown name is a
    usage error (exit 2) that lists the known programs."""
    try:
        return get_program(name)
    except KeyError:
        parser.error(f"unknown suite program {name!r} (known: {', '.join(SUITE)})")


def scaled_spec(spec: WorkloadSpec, scale: float) -> WorkloadSpec:
    """``spec`` with its trace budgets scaled by ``scale``, floored at
    10,000 ref and 5,000 test blocks.

    The one scaling rule of a scaled run (``Lab(scale=...)``, the
    compiler CLI's ``--scale``).  Recipe keys (trace bundles, baseline
    curves) name the scaled spec, so the rule must stay bit-stable.
    """
    return replace(
        spec,
        ref_blocks=max(10_000, int(spec.ref_blocks * scale)),
        test_blocks=max(5_000, int(spec.test_blocks * scale)),
    )


def build(name: str, *, ref_blocks: int | None = None, test_blocks: int | None = None) -> tuple[SuiteProgram, Module]:
    """Build a suite program's module, optionally overriding trace budgets.

    The overrides let benchmarks run scaled-down versions of every
    experiment without redefining the suite.
    """
    prog = get_program(name)
    spec = prog.spec
    if ref_blocks is not None or test_blocks is not None:
        spec = replace(
            spec,
            ref_blocks=ref_blocks or spec.ref_blocks,
            test_blocks=test_blocks or spec.test_blocks,
        )
        prog = replace(prog, spec=spec)
    return prog, build_program(spec)
