"""Certification mode: cross-check static predictions against simulation.

A heuristic profile is only useful if its *ordering* is right: the
optimizers and lint rules consume relative hotness and relative conflict
pressure, not absolute counts.  Certification therefore scores two
Spearman rank correlations per ``(program, layout)``:

* **conflict** — the static per-line conflict scores of
  :class:`~repro.staticlint.conflict.StaticLintContext` against measured
  per-line LRU *reuse* misses from the stack-distance machinery
  (:func:`repro.cache.fastsim.per_line_misses` minus the one unavoidable
  cold miss per touched line — conflict scores predict capacity/conflict
  evictions, not first touches), over every line of the laid-out image;
* **hotness** — the estimated per-block frequencies against measured
  ref-input execution counts, over every block.

Spearman is computed tie-aware in plain NumPy (average ranks), keeping
``src`` dependency-free beyond NumPy.  The CI gate requires the conflict
correlation to clear a threshold on two synthetic workloads; the
experiments runner reports the full table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..cache.fastsim import per_line_misses
from ..perf.telemetry import add_into
from .conflict import StaticLintContext
from .frequency import estimate_frequencies
from .rulepack import StaticLintConfig, run_static_lint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.pipeline import Lab

__all__ = ["CertifyResult", "certify_program", "certify_suite", "spearman"]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # Rank span of each tie group is (csum - count, csum]; its average
    # rank is csum - (count - 1) / 2.
    csum = np.cumsum(counts)
    avg = csum - (counts - 1) / 2.0
    return avg[inverse]


def spearman(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Tie-aware Spearman rank correlation; 0.0 for degenerate inputs.

    Pearson correlation of average ranks — the standard tie-corrected
    definition.  Returns 0.0 when either side is constant (correlation
    undefined) or the vectors are empty.
    """
    ax = np.asarray(x, dtype=np.float64)
    ay = np.asarray(y, dtype=np.float64)
    if ax.shape != ay.shape:
        raise ValueError(f"shape mismatch: {ax.shape} vs {ay.shape}")
    if ax.size < 2:
        return 0.0
    rx = _average_ranks(ax)
    ry = _average_ranks(ay)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = float(np.sqrt((rx * rx).sum() * (ry * ry).sum()))
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


@dataclass(frozen=True)
class CertifyResult:
    """Calibration of the static analyzer on one (program, layout)."""

    program: str
    layout: str
    #: Spearman(static per-line conflict score, measured per-line reuse
    #: misses — total misses minus the cold first touch of each line).
    conflict_rho: float
    #: Spearman(estimated block frequency, measured execution count).
    hotness_rho: float
    #: lines in the laid-out image (the correlation universe).
    n_lines: int
    #: lines with a nonzero static conflict score.
    n_conflict_lines: int
    #: total measured LRU misses of the ref stream.
    measured_misses: int
    #: diagnostics the static pack emitted for this layout.
    diagnostics: int
    #: wall seconds of the static side (profile + lint + scores).
    static_seconds: float
    #: wall seconds of the measured side (per-line simulation).
    sim_seconds: float

    def passes(self, min_conflict_rho: float, min_hotness_rho: float = 0.0) -> bool:
        return (
            self.conflict_rho >= min_conflict_rho
            and self.hotness_rho >= min_hotness_rho
        )

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "layout": self.layout,
            "conflict_rho": round(self.conflict_rho, 4),
            "hotness_rho": round(self.hotness_rho, 4),
            "n_lines": self.n_lines,
            "n_conflict_lines": self.n_conflict_lines,
            "measured_misses": self.measured_misses,
            "diagnostics": self.diagnostics,
            "static_seconds": round(self.static_seconds, 4),
            "sim_seconds": round(self.sim_seconds, 4),
        }


def certify_program(
    name: str,
    *,
    layout_name: str = "baseline",
    scale: float = 1.0,
    hot_coverage: float = 0.9,
    config: Optional[StaticLintConfig] = None,
    lab: "Optional[Lab]" = None,
) -> CertifyResult:
    """Certify the static analyzer on one suite program.

    Builds (or reuses, via ``lab``) the program and layout, computes the
    static profile + conflict scores, measures per-line misses of the
    ref-input fetch stream, and correlates the two.  Folds its telemetry
    into the lab's ``staticlint_*`` counters.
    """
    from ..experiments.pipeline import Lab

    config = config or StaticLintConfig(hot_coverage=hot_coverage)
    if lab is None:
        lab = Lab(scale=scale)
    prepared = lab.program(name)
    module = prepared.module
    layout = lab.layout(name, layout_name)
    stream = lab.lines(name, layout_name)
    cache = lab.cache_cfg

    t0 = time.perf_counter()
    profile = estimate_frequencies(module, config.frequency)
    ctx = StaticLintContext(
        module, layout.address_map, cache, profile, hot_coverage=config.hot_coverage
    )
    scores = ctx.conflict_scores
    report = run_static_lint(
        module, layout, cache, config, profile=profile, layout_name=layout_name
    )
    static_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    measured = per_line_misses(stream, cache)
    sim_seconds = time.perf_counter() - t1

    lines = ctx.image_lines
    static_vec = np.array([scores.get(line, 0.0) for line in lines])
    # Reuse misses: every touched line pays exactly one cold miss that no
    # conflict predictor should be charged with; subtract it so the
    # correlation targets evictions.
    measured_vec = np.array(
        [max(0, measured.get(line, 0) - 1) if line in measured else 0 for line in lines],
        dtype=np.float64,
    )
    conflict_rho = spearman(static_vec, measured_vec)

    exec_counts = np.bincount(
        prepared.ref_bundle.bb_trace, minlength=module.n_blocks
    ).astype(np.float64)
    hotness_rho = spearman(profile.block_freq, exec_counts)

    add_into(
        lab.counters,
        {
            "staticlint_diags": len(report.diagnostics),
            "staticlint_seconds": static_seconds,
            "staticlint_certified": 1,
        },
    )

    return CertifyResult(
        program=name,
        layout=layout_name,
        conflict_rho=conflict_rho,
        hotness_rho=hotness_rho,
        n_lines=len(lines),
        n_conflict_lines=int(np.count_nonzero(static_vec)),
        measured_misses=int(sum(measured.values())),
        diagnostics=len(report.diagnostics),
        static_seconds=static_seconds,
        sim_seconds=sim_seconds,
    )


def certify_suite(
    programs: Sequence[str],
    *,
    layout_name: str = "baseline",
    scale: float = 1.0,
    hot_coverage: float = 0.9,
    config: Optional[StaticLintConfig] = None,
    lab: "Optional[Lab]" = None,
) -> list[CertifyResult]:
    """Certify several programs with one shared lab (shared memoization)."""
    from ..experiments.pipeline import Lab

    if lab is None:
        lab = Lab(scale=scale)
    return [
        certify_program(
            name,
            layout_name=layout_name,
            hot_coverage=hot_coverage,
            config=config,
            lab=lab,
        )
        for name in programs
    ]
