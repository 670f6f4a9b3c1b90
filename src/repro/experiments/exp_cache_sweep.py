"""Extension experiment X5: would a bigger instruction cache obsolete the
optimization?

The paper's Sec. III-A argues the 32 KB L1I size is pinned by the
virtually-indexed-physically-tagged lookup trick and "is unlikely to
increase".  This driver asks the follow-up question the argument invites:
*if* it did increase, how fast would code-layout optimization stop
mattering?

For L1I sizes 16/32/64/128 KB (4-way, 64 B lines), four study programs are
evaluated baseline vs BB-affinity, solo and in co-run with the gamess
probe.  The expected pattern: the optimization's absolute win shrinks as
capacity grows, but the *co-run* win outlives the solo win by one or two
size doublings — sharing halves the effective capacity, so defensiveness
stays relevant one generation longer than locality.
"""

from __future__ import annotations

from ..cache.config import CacheConfig
from ..core.goals import relative_reduction
from .pipeline import BASELINE, Lab
from .report import ExperimentResult, pct

__all__ = ["run", "SWEEP_SIZES_KB", "SWEEP_PROGRAMS"]

SWEEP_SIZES_KB = (16, 32, 64, 128)
SWEEP_PROGRAMS = ("syn-gcc", "syn-gobmk", "syn-sjeng", "syn-omnetpp")
_OPT = "bb-affinity"
_PROBE = "syn-gamess"


def run(lab: Lab) -> ExperimentResult:
    rows = []
    summary: dict[str, float] = {}
    for size_kb in SWEEP_SIZES_KB:
        cfg = CacheConfig(size_bytes=size_kb * 1024, assoc=4, line_bytes=64)
        # Co-runs need a lab at the sweep geometry (shared-cache
        # interleaving depends on the full config); solo sim cells do
        # not — they read the parent lab's per-n_sets stack-distance
        # histograms, so the sweep shares one prepared
        # program/layout/stream set (line size is 64 B throughout)
        # instead of rebuilding it per size.
        sub = Lab(
            cache_cfg=cfg,
            scale=lab.scale,
            quantum=lab.quantum,
            noise_sigma=lab.noise_sigma,
            timing=lab.timing,
            kernel_backend=lab.kernel_backend,
        )
        for name in SWEEP_PROGRAMS:
            instr = lab.program(name).instr_count
            solo_b = lab.histogram(name, BASELINE, cfg.n_sets).misses(cfg.assoc)
            solo_o = lab.histogram(name, _OPT, cfg.n_sets).misses(cfg.assoc)
            solo_b, solo_o = solo_b / instr, solo_o / instr
            corun_b = sub.corun_miss((name, BASELINE), (_PROBE, BASELINE), "sim")[0].ratio
            corun_o = sub.corun_miss((name, _OPT), (_PROBE, BASELINE), "sim")[0].ratio
            solo_red = relative_reduction(solo_b, solo_o)
            corun_red = relative_reduction(corun_b, corun_o)
            rows.append(
                [
                    f"{size_kb}KB",
                    name,
                    pct(solo_b, signed=False),
                    pct(solo_red),
                    pct(corun_b, signed=False),
                    pct(corun_red),
                ]
            )
            key = f"{size_kb}kb/{name}"
            summary[f"{key}/solo_base"] = solo_b
            summary[f"{key}/solo_reduction"] = solo_red
            summary[f"{key}/corun_base"] = corun_b
            summary[f"{key}/corun_reduction"] = corun_red
    return ExperimentResult(
        exp_id="cache-sweep",
        title="Extension: L1I size sweep — how fast would a bigger cache "
        "obsolete layout optimization?",
        headers=[
            "L1I size",
            "program",
            "solo base mr",
            "solo reduction",
            "co-run base mr",
            "co-run reduction",
        ],
        rows=rows,
        summary=summary,
        notes=[f"optimizer: {_OPT}; probe: {_PROBE}; 4-way, 64B lines throughout"],
    )
