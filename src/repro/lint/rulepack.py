"""The initial lint rule pack (L001–L006).

Each rule statically predicts one cache-behaviour defect of a concrete
layout, in the vocabulary of the paper:

=====  =======================  =========================================
id     name                     predicts
=====  =======================  =========================================
L001   set-conflict-hotspot     conflict misses: hot lines piled onto one
                                cache set beyond its associativity
L002   broken-fallthrough       code bloat + fetch discontinuity from
                                fall-through successors laid out apart
L003   hot-cold-interleaving    wasted fetches: cold code embedded inside
                                hot runs
L004   line-utilization         fragmentation politeness cost: hot lines
                                mostly filled with cold bytes
L005   footprint-over-capacity  capacity/defensiveness risk: static hot
                                footprint vs. the paper's C threshold
L006   layout-integrity         structural breakage (not a permutation,
                                overlaps, impossible sizes)
=====  =======================  =========================================

L001's aggregate ``conflict_score`` — the dynamic fetch volume directed at
lines that exceed their set's associativity, normalized by total hot fetch
volume — doubles as the analyzer's headline quality metric; the test suite
verifies it rank-correlates with simulated miss ratios across the paper's
four optimizers.
"""

from __future__ import annotations

from .context import LintContext
from .diagnostics import Diagnostic, Severity, truncation_note
from .integrity import RULE_INTEGRITY, layout_integrity
from .rules import LintConfig, rule

__all__ = [
    "set_conflict_hotspot",
    "broken_fallthrough",
    "hot_cold_interleaving",
    "line_utilization",
    "footprint_over_capacity",
    "layout_integrity",
]


@rule(
    "L001",
    "set-conflict-hotspot",
    "hot cache lines mapped to one set beyond its associativity",
    Severity.WARNING,
)
def set_conflict_hotspot(ctx: LintContext, cfg: LintConfig) -> tuple[list[Diagnostic], dict]:
    """Static conflict-miss predictor.

    Maps every hot line to its cache set; a set holding more hot lines than
    ways cannot keep them all resident, so the overflow lines — the coldest
    of the set, under LRU's bias toward heat — are predicted conflict
    victims.  The score charges each victim line its dynamic fetch count.
    """
    cache = ctx.cache
    by_set: dict[int, list[int]] = {}
    for line in ctx.hot_lines:
        by_set.setdefault(cache.set_of_line(line), []).append(line)

    heat = ctx.line_heat
    total_hot_heat = sum(heat.get(line, 0) for line in ctx.hot_lines)
    findings = []
    victim_heat_total = 0
    max_pressure = 0.0
    for set_idx, lines in by_set.items():
        pressure = len(lines) / cache.assoc
        max_pressure = max(max_pressure, pressure)
        if len(lines) <= cache.assoc:
            continue
        ranked = sorted(lines, key=lambda line: (-heat.get(line, 0), line))
        victims = ranked[cache.assoc :]
        victim_heat = sum(heat.get(line, 0) for line in victims)
        victim_heat_total += victim_heat
        culprits = []
        for line in ranked[: cache.assoc + 2]:
            for gid in ctx.hot_line_blocks.get(line, [])[:1]:
                name = ctx.block_name(gid)
                if name not in culprits:
                    culprits.append(name)
        findings.append(
            (
                victim_heat,
                Diagnostic(
                    "L001",
                    Severity.WARNING,
                    f"set {set_idx}",
                    f"{len(lines)} hot lines compete for {cache.assoc} ways"
                    + (f" (e.g. {', '.join(culprits[:3])})" if culprits else ""),
                    {
                        "hot_lines": len(lines),
                        "assoc": cache.assoc,
                        "pressure": round(pressure, 3),
                        "victim_fetches": victim_heat,
                    },
                ),
            )
        )

    findings.sort(key=lambda t: -t[0])
    diags = [d for _, d in findings[: cfg.max_reports]]
    if len(findings) > cfg.max_reports:
        diags.append(truncation_note("L001", cfg.max_reports, len(findings)))

    score = victim_heat_total / total_hot_heat if total_hot_heat else 0.0
    metrics = {
        "n_conflict_sets": len(findings),
        "n_sets_used": len(by_set),
        "max_pressure": round(max_pressure, 4),
        "victim_fetches": victim_heat_total,
        "conflict_score": round(score, 6),
    }
    return diags, metrics


@rule(
    "L002",
    "broken-fallthrough",
    "fall-through successors not laid out adjacently (added-jump bloat)",
    Severity.WARNING,
)
def broken_fallthrough(ctx: LintContext, cfg: LintConfig) -> tuple[list[Diagnostic], dict]:
    """Attributes the layout's added-jump bloat to individual blocks.

    A block whose fall-through successor is not placed immediately after it
    pays one explicit jump (static bloat) on every execution (dynamic fetch
    discontinuity).  Hot offenders are reported individually; cold ones only
    count toward the aggregate, since cold code keeps its declaration-order
    quirks in any realistic layout.
    """
    gids, targets = ctx.broken_fallthroughs
    heat = ctx.block_heat[gids]
    hot = ctx.hot_mask[gids]
    broken_hot = list(zip(heat[hot].tolist(), gids[hot].tolist(), targets[hot].tolist()))

    broken_hot.sort(key=lambda t: (-t[0], t[1]))
    diags = [
        Diagnostic(
            "L002",
            Severity.WARNING,
            ctx.block_name(gid),
            f"hot fall-through to {ctx.block_name(target)} is broken "
            f"(explicit jump on every execution)",
            {"executions": execs, "target": ctx.block_name(target)},
        )
        for execs, gid, target in broken_hot[: cfg.max_reports]
    ]
    if len(broken_hot) > cfg.max_reports:
        diags.append(truncation_note("L002", cfg.max_reports, len(broken_hot)))

    metrics = {
        "n_broken_hot": len(broken_hot),
        "n_broken_total": len(gids),
        "added_jumps": int(ctx.amap.added_jumps),
        "dynamic_added_jumps": int(heat.sum()),
    }
    return diags, metrics


@rule(
    "L003",
    "hot-cold-interleaving",
    "cold blocks embedded inside hot runs, wasting fetched lines",
    Severity.WARNING,
)
def hot_cold_interleaving(ctx: LintContext, cfg: LintConfig) -> tuple[list[Diagnostic], dict]:
    """Flags short cold runs sandwiched between hot blocks.

    A small pocket of cold code inside a hot run shares cache lines with
    the hot code around it and is fetched on its neighbours' coattails —
    pure footprint waste.  Long cold runs merely separate two hot regions
    and are not flagged.
    """
    amap = ctx.amap
    limit_bytes = cfg.interleave_max_cold_lines * ctx.cache.line_bytes
    # Out-of-range gids are L006's to report; walk the blocks the module has.
    order = [gid for gid in amap.order if 0 <= gid < ctx.n_blocks]
    findings = []
    wasted_bytes = 0
    i = 0
    n = len(order)
    while i < n:
        gid = order[i]
        if ctx.is_hot(gid):
            i += 1
            continue
        j = i
        run_bytes = 0
        while j < n and not ctx.is_hot(order[j]):
            run_bytes += int(amap.sizes[order[j]])
            j += 1
        sandwiched = 0 < i and j < n
        if sandwiched and run_bytes < limit_bytes:
            wasted_bytes += run_bytes
            first, last = order[i], order[j - 1]
            loc = (
                ctx.block_name(first)
                if i == j - 1
                else f"{ctx.block_name(first)}..{ctx.block_name(last)}"
            )
            findings.append(
                (
                    run_bytes,
                    Diagnostic(
                        "L003",
                        Severity.WARNING,
                        loc,
                        f"{j - i} cold block(s) ({run_bytes}B) interrupt the hot run "
                        f"between {ctx.block_name(order[i - 1])} and "
                        f"{ctx.block_name(order[j])}",
                        {
                            "cold_blocks": j - i,
                            "cold_bytes": run_bytes,
                            "prev_hot": ctx.block_name(order[i - 1]),
                            "next_hot": ctx.block_name(order[j]),
                        },
                    ),
                )
            )
        i = j
    findings.sort(key=lambda t: -t[0])
    diags = [d for _, d in findings[: cfg.max_reports]]
    if len(findings) > cfg.max_reports:
        diags.append(truncation_note("L003", cfg.max_reports, len(findings)))
    metrics = {"n_interleavings": len(findings), "interleaved_cold_bytes": wasted_bytes}
    return diags, metrics


@rule(
    "L004",
    "line-utilization",
    "hot-touched cache lines mostly filled with cold bytes",
    Severity.WARNING,
)
def line_utilization(ctx: LintContext, cfg: LintConfig) -> tuple[list[Diagnostic], dict]:
    """Fragmentation politeness cost.

    Every line a hot block touches is fetched whole; bytes of the line not
    occupied by hot code are capacity the program takes from the shared
    cache without using.  Reports the overall utilization of the hot
    footprint and warns when too many lines fall below the threshold.
    """
    lb = ctx.cache.line_bytes
    occ = ctx.line_hot_bytes
    if not occ:
        return [], {
            "n_hot_lines": 0,
            "mean_utilization": 1.0,
            "n_fragmented": 0,
            "fragmented_fraction": 0.0,
        }
    utils = {line: occ[line] / lb for line in occ}
    fragmented = {
        line: u for line, u in utils.items() if u < cfg.line_utilization_threshold
    }
    mean_util = sum(utils.values()) / len(utils)
    frag_fraction = len(fragmented) / len(utils)

    diags: list[Diagnostic] = []
    if frag_fraction > cfg.fragmentation_warn_fraction:
        diags.append(
            Diagnostic(
                "L004",
                Severity.WARNING,
                "layout",
                f"{len(fragmented)} of {len(utils)} hot lines are below "
                f"{cfg.line_utilization_threshold:.0%} hot-byte utilization",
                {
                    "n_fragmented": len(fragmented),
                    "n_hot_lines": len(utils),
                    "fragmented_fraction": round(frag_fraction, 4),
                    "mean_utilization": round(mean_util, 4),
                },
            )
        )
    worst = sorted(fragmented.items(), key=lambda t: (t[1], t[0]))[: min(5, cfg.max_reports)]
    for line, u in worst:
        owners = [ctx.block_name(g) for g in ctx.hot_line_blocks.get(line, [])[:2]]
        diags.append(
            Diagnostic(
                "L004",
                Severity.INFO,
                f"line {line}",
                f"only {occ[line]}B of {lb}B are hot"
                + (f" ({', '.join(owners)})" if owners else ""),
                {"hot_bytes": occ[line], "line_bytes": lb, "utilization": round(u, 4)},
            )
        )

    metrics = {
        "n_hot_lines": len(utils),
        "mean_utilization": round(mean_util, 6),
        "n_fragmented": len(fragmented),
        "fragmented_fraction": round(frag_fraction, 6),
    }
    return diags, metrics


@rule(
    "L005",
    "footprint-over-capacity",
    "static hot footprint at or above the cache-capacity threshold",
    Severity.WARNING,
)
def footprint_over_capacity(ctx: LintContext, cfg: LintConfig) -> tuple[list[Diagnostic], dict]:
    """The paper's defensiveness threshold, evaluated statically.

    A program misses in shared cache when ``self.FP + peer.FP >= C``
    (paper Eq. 1).  With the static hot footprint H as the FP proxy:
    ``H >= C`` predicts capacity misses even solo; ``2H >= C`` predicts
    thrashing against a symmetric peer — the defensiveness risk the
    paper's optimizers exist to reduce.
    """
    h = len(ctx.hot_lines)
    c = ctx.cache.n_lines
    ratio = h / c if c else 0.0
    diags: list[Diagnostic] = []
    if h >= c:
        diags.append(
            Diagnostic(
                "L005",
                Severity.WARNING,
                "layout",
                f"static hot footprint ({h} lines) exceeds cache capacity "
                f"({c} lines): capacity misses even solo",
                {"hot_lines": h, "capacity_lines": c, "footprint_ratio": round(ratio, 4)},
            )
        )
    elif 2 * h >= c:
        diags.append(
            Diagnostic(
                "L005",
                Severity.INFO,
                "layout",
                f"static hot footprint ({h} lines) exceeds half of capacity "
                f"({c} lines): predicted to thrash against a symmetric peer",
                {"hot_lines": h, "capacity_lines": c, "footprint_ratio": round(ratio, 4)},
            )
        )
    metrics = {
        "hot_lines": h,
        "capacity_lines": c,
        "footprint_ratio": round(ratio, 6),
    }
    return diags, metrics


rule(
    RULE_INTEGRITY,
    "layout-integrity",
    "permutation, overlap and gap audit of the address map",
    Severity.ERROR,
)(layout_integrity)
