"""Locality theory: all-window footprint, HOTL conversion, and the formal
defensiveness/politeness miss model.  Reuse (LRU stack) distance lives in
:mod:`repro.cache.fastsim`; at ``n_sets=1`` it is the fully associative
case."""

from .footprint import FootprintCurve, footprint_brute, footprint_curve
from .hotl import (
    miss_ratio,
    shared_fill_time,
    shared_fill_time_scalar,
    shared_fill_times,
    shared_growth,
    shared_miss_ratios,
    shared_miss_ratios_scalar,
)
from .missmodel import BenefitReport, classify_benefits, corun_miss_ratios

__all__ = [
    "BenefitReport",
    "FootprintCurve",
    "classify_benefits",
    "corun_miss_ratios",
    "footprint_brute",
    "footprint_curve",
    "miss_ratio",
    "shared_fill_time",
    "shared_fill_time_scalar",
    "shared_fill_times",
    "shared_growth",
    "shared_miss_ratios",
    "shared_miss_ratios_scalar",
]
