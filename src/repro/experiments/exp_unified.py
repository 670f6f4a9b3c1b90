"""Extension experiment X2: layout benefits in the unified cache (Eq. 1).

The paper's benefit classification (Sec. II-A) distinguishes the
instruction cache (Eq. 2) from the *unified* lower-level cache, where
instruction misses compete with data misses:

    ``P(self.miss) = P(self.FP.(inst+data) + peer.FP.(inst+data) >= C)``

This driver runs merged instruction+data streams through the two-level
hierarchy (split 32 KB L1s over a 256 KB unified L2, all shared by the
hyper-threads) and reports, per study program and layout:

* L1I miss ratio (should match the L1-only experiments),
* self L2 misses per instruction, solo and co-run,
* the *peer's* L2 misses per instruction in the co-run — politeness in
  the unified cache: our instruction misses no longer flood L2, so the
  peer's data keeps its L2 share.
"""

from __future__ import annotations

from ..cache.hierarchy import PAPER_HIERARCHY, simulate_hierarchy, simulate_hierarchy_shared
from ..cache.shared import pass_scale
from ..core.goals import relative_reduction
from ..engine.datastream import merged_stream
from .pipeline import BASELINE, Lab, THREAD_STRIDE
from .report import ExperimentResult, pct, ratio

__all__ = ["run", "UNIFIED_PROGRAMS", "UNIFIED_LAYOUTS"]

#: study subset used for the hierarchy runs (kept small: the two-level
#: simulation is ~2x the L1-only cost per pair).
UNIFIED_PROGRAMS = ("syn-gcc", "syn-sjeng", "syn-omnetpp", "syn-mcf")
UNIFIED_LAYOUTS = (BASELINE, "function-affinity", "bb-affinity")
_PROBE = "syn-gamess"


def _merged(lab: Lab, name: str, layout_name: str):
    prepared = lab.program(name)
    amap = lab.layout(name, layout_name).address_map
    return merged_stream(
        prepared.ref_bundle.bb_trace,
        amap,
        lab.cache_cfg.line_bytes,
        prepared.module,
    )


def run(lab: Lab) -> ExperimentResult:
    rows = []
    summary: dict[str, float] = {}
    probe_lines, probe_data = _merged(lab, _PROBE, BASELINE)
    probe_lines = probe_lines + THREAD_STRIDE

    for name in UNIFIED_PROGRAMS:
        prepared = lab.program(name)
        instr = prepared.instr_count
        base_self_l2 = None
        base_peer_l2 = None
        for layout_name in UNIFIED_LAYOUTS:
            if layout_name.startswith("bb") and not lab.supports(name, "bb-affinity"):
                rows.append([name, layout_name, "N/A", "N/A", "N/A", "N/A"])
                continue
            lines, is_data = _merged(lab, name, layout_name)
            solo = simulate_hierarchy(lines, is_data, PAPER_HIERARCHY)
            shared = simulate_hierarchy_shared(
                [(lines, is_data), (probe_lines, probe_data)],
                PAPER_HIERARCHY,
                quantum=lab.quantum,
            )
            self_st, peer_st = shared[0], shared[1]
            # normalize wrapped passes to one pass each.
            self_scale = pass_scale(len(lines), self_st.l1i.accesses + self_st.l1d.accesses)
            peer_scale = pass_scale(len(probe_lines), peer_st.l1i.accesses + peer_st.l1d.accesses)
            solo_l2 = solo.l2.misses / instr
            corun_self_l2 = self_st.l2.misses * self_scale / instr
            peer_instr = lab.program(_PROBE).instr_count
            corun_peer_l2 = peer_st.l2.misses * peer_scale / peer_instr
            l1i_mr = solo.l1i.misses / instr

            key = f"{name}/{layout_name}"
            summary[f"{key}/l1i"] = l1i_mr
            summary[f"{key}/solo_l2"] = solo_l2
            summary[f"{key}/corun_self_l2"] = corun_self_l2
            summary[f"{key}/corun_peer_l2"] = corun_peer_l2
            if layout_name == BASELINE:
                base_self_l2 = corun_self_l2
                base_peer_l2 = corun_peer_l2
            else:
                if base_self_l2:
                    summary[f"{key}/defensiveness_l2"] = relative_reduction(
                        base_self_l2, corun_self_l2
                    )
                if base_peer_l2:
                    summary[f"{key}/politeness_l2"] = relative_reduction(
                        base_peer_l2, corun_peer_l2
                    )
            rows.append(
                [
                    name,
                    layout_name,
                    pct(l1i_mr, signed=False),
                    ratio(solo_l2, 4),
                    ratio(corun_self_l2, 4),
                    ratio(corun_peer_l2, 4),
                ]
            )
    return ExperimentResult(
        exp_id="unified",
        title="Extension: Eq. 1 in the unified L2 — instruction+data "
        "competition, solo and under co-run",
        headers=[
            "program",
            "layout",
            "L1I miss",
            "solo L2/instr",
            "co-run self L2/instr",
            "co-run peer L2/instr",
        ],
        rows=rows,
        summary=summary,
        notes=[f"probe: {_PROBE}; hierarchy: 32K L1I + 32K L1D + 256K unified L2"],
    )
