"""Synthetic workload suite: generator and the 29 named SPEC-like programs."""

from .external import from_profile, load_profile_csv
from .generator import WorkloadSpec, build_program
from .suite import (
    ALL_PROGRAMS,
    PROBE_PROGRAMS,
    STUDY_PROGRAMS,
    SUITE,
    SuiteProgram,
    build,
    get_program,
    scaled_spec,
)

__all__ = [
    "ALL_PROGRAMS",
    "PROBE_PROGRAMS",
    "STUDY_PROGRAMS",
    "SUITE",
    "SuiteProgram",
    "WorkloadSpec",
    "build",
    "build_program",
    "from_profile",
    "load_profile_csv",
    "get_program",
    "scaled_spec",
]
