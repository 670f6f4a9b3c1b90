"""Extension experiment X5: how far does a profile-free build carry?

The paper's pipeline is profile-guided: instrument, run the test input,
feed the trace to the layout optimizers.  :mod:`repro.staticlint`
replaces the test run with a purely static frequency estimate
(Ball–Larus-style branch heuristics propagated through a Markov chain).
This experiment quantifies both halves of that substitution per study
program:

* **certification** — Spearman rank agreement between the static
  predictions and the trace-driven simulator: per-line conflict scores
  vs. measured per-line reuse misses, and per-block estimated frequency
  vs. measured execution counts (see :mod:`repro.staticlint.certify`);
* **end-to-end quality** — solo miss ratio of the ``bb-affinity`` layout
  when the optimizer is driven by the static profile instead of the
  trace, against the baseline and trace-driven layouts.  The ``recovered``
  column is the fraction of the trace-driven improvement the profile-free
  build achieves (1.0 = as good as profiling, 0.0 = no better than
  baseline).

Both labs share scale and cache; evaluation always uses the real
ref-input trace, so the comparison isolates the profile source.
"""

from __future__ import annotations

from ..staticlint.certify import certify_program
from ..workloads.suite import STUDY_PROGRAMS
from .pipeline import BASELINE, Lab
from .report import ExperimentResult, ratio

__all__ = ["run"]

#: the optimizer whose profile sensitivity is measured.
_OPT = "bb-affinity"


def run(lab: Lab) -> ExperimentResult:
    static_lab = Lab(
        cache_cfg=lab.cache_cfg,
        scale=lab.scale,
        optimizer_config=lab.optimizer_config,
        quantum=lab.quantum,
        noise_sigma=lab.noise_sigma,
        timing=lab.timing,
        kernel_backend=lab.kernel_backend,
        profile_source="static",
    )

    rows = []
    summary: dict[str, float] = {}
    rhos, hot_rhos, recovered_fracs = [], [], []
    for name in STUDY_PROGRAMS:
        cert = certify_program(name, lab=lab)

        base = lab.solo_miss(name, BASELINE, channel="sim")
        traced = lab.solo_miss(name, _OPT, channel="sim")
        static = static_lab.solo_miss(name, _OPT, channel="sim")
        base_mr, traced_mr, static_mr = base.ratio, traced.ratio, static.ratio
        gain = base_mr - traced_mr
        recovered = (base_mr - static_mr) / gain if gain > 0 else 1.0

        rows.append(
            [
                name,
                ratio(cert.conflict_rho, 3),
                ratio(cert.hotness_rho, 3),
                ratio(base_mr, 4),
                ratio(traced_mr, 4),
                ratio(static_mr, 4),
                ratio(recovered, 3),
            ]
        )
        summary[f"{name}/conflict_rho"] = cert.conflict_rho
        summary[f"{name}/recovered"] = recovered
        # Degenerate programs (no oversubscribed set -> rho pinned at 0)
        # are excluded from the headline mean, not hidden from the table.
        if cert.n_conflict_lines:
            rhos.append(cert.conflict_rho)
        hot_rhos.append(cert.hotness_rho)
        recovered_fracs.append(recovered)

    summary["mean_conflict_rho"] = sum(rhos) / len(rhos) if rhos else 0.0
    summary["mean_hotness_rho"] = sum(hot_rhos) / len(hot_rhos)
    summary["mean_recovered"] = sum(recovered_fracs) / len(recovered_fracs)

    # Fold the static lab's telemetry into the shared lab so a bench
    # report covers both channels.
    for key, value in static_lab.counters.items():
        lab.counters[key] = lab.counters.get(key, 0) + value
    for stage, seconds in static_lab.timings.items():
        lab.timings[stage] = lab.timings.get(stage, 0.0) + seconds

    return ExperimentResult(
        exp_id="staticlint-certify",
        title=f"Static analysis certification + profile-free {_OPT} quality",
        headers=[
            "program",
            "conflict_rho",
            "hotness_rho",
            "baseline",
            f"{_OPT} (trace)",
            f"{_OPT} (static)",
            "recovered",
        ],
        rows=rows,
        summary=summary,
        notes=[
            "rho: Spearman static-vs-measured (conflict: per-line reuse misses;"
            " hotness: per-block counts)",
            "recovered: fraction of the trace-driven miss-ratio gain kept"
            " without any profiling",
            "mean_conflict_rho excludes programs with no oversubscribed set",
        ],
    )
