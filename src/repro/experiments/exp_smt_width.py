"""Extension experiment X4: wider SMT — the paper's Sec. III-F conjecture.

The paper closes its defensiveness+politeness section with a conjecture:
"in cases where ... the number of co-run programs is high, combining
defensiveness and politeness should see a synergistic improvement."  The
paper could not test it (Nehalem has 2 hyper-threads); the simulator can
(the paper itself notes Power 7's 4 and Power 8's 8 SMT threads).

For SMT widths 1, 2, 4 and 8 sharing one 32 KB L1I, this driver co-runs
copies of one program (each in its own address space) and reports the
per-thread miss ratio under three policies:

* ``none``      — every copy baseline;
* ``one-sided`` — only the measured copy optimized (defensiveness only);
* ``all``       — every copy optimized (defensiveness + politeness).

The conjecture holds if the gap between ``one-sided`` and ``all`` grows
with the thread count: with one peer, optimizing yourself is enough (the
paper's finding); with many peers, the peers' footprints dominate and only
optimizing *them* too recovers the cache.
"""

from __future__ import annotations

from ..cache.shared import pass_scale, simulate_shared
from ..core.goals import relative_reduction
from .pipeline import BASELINE, Lab, THREAD_STRIDE
from .report import ExperimentResult, pct

__all__ = ["run", "SMT_WIDTHS", "X4_PROGRAM", "X4_OPTIMIZER"]

SMT_WIDTHS = (1, 2, 4, 8)
X4_PROGRAM = "syn-sjeng"
X4_OPTIMIZER = "bb-affinity"


def _miss_ratio_of_thread0(lab: Lab, streams) -> float:
    st = simulate_shared(streams, lab.cache_cfg, quantum=lab.quantum)[0]
    scale = pass_scale(len(streams[0]), st.accesses)
    return st.misses * scale / lab.program(X4_PROGRAM).instr_count


def run(lab: Lab) -> ExperimentResult:
    base_lines = lab.lines(X4_PROGRAM, BASELINE)
    opt_lines = lab.lines(X4_PROGRAM, X4_OPTIMIZER)

    rows = []
    summary: dict[str, float] = {}
    for width in SMT_WIDTHS:
        def streams(first, peers):
            out = [first]
            for t in range(1, width):
                out.append(peers + t * THREAD_STRIDE)
            return out

        none = _miss_ratio_of_thread0(lab, streams(base_lines, base_lines))
        one_sided = _miss_ratio_of_thread0(lab, streams(opt_lines, base_lines))
        all_opt = _miss_ratio_of_thread0(lab, streams(opt_lines, opt_lines))

        defensiveness = relative_reduction(none, one_sided)
        synergy = relative_reduction(one_sided, all_opt)
        rows.append(
            [
                f"{width}-way",
                pct(none, signed=False),
                pct(one_sided, signed=False),
                pct(all_opt, signed=False),
                pct(defensiveness),
                pct(synergy),
            ]
        )
        summary[f"w{width}/none"] = none
        summary[f"w{width}/one_sided"] = one_sided
        summary[f"w{width}/all"] = all_opt
        summary[f"w{width}/defensiveness"] = defensiveness
        summary[f"w{width}/synergy"] = synergy

    return ExperimentResult(
        exp_id="smt-width",
        title=f"Extension: the Sec. III-F conjecture at SMT widths 1-8 "
        f"({X4_PROGRAM} copies, {X4_OPTIMIZER})",
        headers=[
            "width",
            "all baseline",
            "self optimized",
            "all optimized",
            "defensiveness",
            "peer-opt synergy",
        ],
        rows=rows,
        summary=summary,
        notes=[
            "synergy = further miss reduction from optimizing the peers, "
            "on top of optimizing yourself; the paper conjectures it grows "
            "with the number of co-runners"
        ],
    )
