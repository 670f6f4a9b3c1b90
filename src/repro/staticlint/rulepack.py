"""The static (no-trace) lint rule pack: S001–S005.

Static mirrors of the trace-driven L-pack, driven entirely by the
heuristic :class:`~repro.staticlint.frequency.StaticProfile`:

=====  ==========================  =====================================
id     name                        predicts
=====  ==========================  =====================================
S001   static-set-conflict         conflict misses: estimated-hot lines
                                   piled onto one set beyond its ways
S002   static-footprint-bound      capacity risk: the statically bounded
                                   footprint curve vs. cache capacity
S003   hot-fallthrough-break       fetch discontinuity cost, weighted by
                                   estimated frequency × edge probability
S004   far-hot-call                frequent call edges whose callee is
                                   placed far from the caller
S005   static-layout-integrity     structural breakage (same audits as
                                   L006, relabelled)
=====  ==========================  =====================================

Diagnostics flow through the same :class:`~repro.lint.diagnostics`
machinery as the L-pack, so reports, JSON rendering and comparison all
work unchanged; only the registry instance differs (S-pack ids can never
collide with L-pack ids).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from ..cache.config import PAPER_L1I, CacheConfig
from ..ir.codegen import AddressMap
from ..ir.module import Module
from ..ir.transforms import LayoutResult
from ..lint.diagnostics import Diagnostic, LintReport, Severity, truncation_note
from ..lint.integrity import layout_integrity
from ..lint.rules import Rule, RuleRegistry, resolve_layout, run_rules
from .conflict import StaticLintContext
from .frequency import FrequencyConfig, StaticProfile, estimate_frequencies

__all__ = [
    "STATIC_REGISTRY",
    "StaticLintConfig",
    "static_rule",
    "all_static_rules",
    "run_static_lint",
]

#: registry of the static rule pack (separate instance from the L-pack).
STATIC_REGISTRY = RuleRegistry()

static_rule = STATIC_REGISTRY.rule


def all_static_rules() -> list[Rule]:
    """Every registered static rule, ordered by id."""
    return STATIC_REGISTRY.all()


@dataclass(frozen=True)
class StaticLintConfig:
    """Per-run policy and tunables for the static pack."""

    #: fraction of estimated executions the hot set must cover.
    hot_coverage: float = 0.9
    #: rule ids to skip entirely.
    disabled: frozenset[str] = frozenset()
    #: rule id -> severity every diagnostic of that rule is forced to.
    severity_overrides: Mapping[str, Severity] = field(default_factory=dict)
    #: cap on per-finding diagnostics a rule emits (aggregates are exempt).
    max_reports: int = 20
    #: branch-heuristic tunables for the frequency estimator.
    frequency: FrequencyConfig = field(default_factory=FrequencyConfig)
    #: S004: calls further than this many cache-sized spans are "far".
    call_distance_cache_spans: float = 1.0
    #: S003/S004: a site below this share of the hottest site is ignored.
    min_site_share: float = 0.01

    def enabled_rules(self) -> list[Rule]:
        return [r for r in all_static_rules() if r.id not in self.disabled]


@static_rule(
    "S001",
    "static-set-conflict",
    "estimated-hot lines mapped to one set beyond its associativity",
    Severity.WARNING,
)
def static_set_conflict(
    ctx: StaticLintContext, cfg: StaticLintConfig
) -> tuple[list[Diagnostic], dict]:
    """Closed-form conflict-miss predictor (no trace).

    The static counterpart of L001: the set population is every *warm*
    line (any estimated heat — even a lukewarm line occupies a way when
    fetched) and the per-line charge is the unservable-demand score of
    :attr:`StaticLintContext.conflict_scores`.  Findings name the hot
    blocks behind the hottest competing lines.
    """
    cache = ctx.cache
    heat = ctx.line_heat
    scores = ctx.conflict_scores
    total_warm_heat = sum(heat.values())

    findings = []
    charged_total = 0.0
    max_pressure = 0.0
    for set_idx, lines in ctx.warm_lines_by_set.items():
        pressure = len(lines) / cache.assoc
        max_pressure = max(max_pressure, pressure)
        if len(lines) <= cache.assoc:
            continue
        charged = sum(scores.get(line, 0.0) for line in lines)
        charged_total += charged
        n_hot = sum(1 for line in lines if line in ctx.hot_line_blocks)
        ranked = sorted(lines, key=lambda line: (-heat.get(line, 0.0), line))
        culprits: list[str] = []
        for line in ranked[: cache.assoc + 2]:
            for gid in ctx.hot_line_blocks.get(line, [])[:1]:
                name = ctx.block_name(gid)
                if name not in culprits:
                    culprits.append(name)
        findings.append(
            (
                charged,
                Diagnostic(
                    "S001",
                    Severity.WARNING,
                    f"set {set_idx}",
                    f"{len(lines)} estimated-warm lines compete for "
                    f"{cache.assoc} ways"
                    + (f" (e.g. {', '.join(culprits[:3])})" if culprits else ""),
                    {
                        "warm_lines": len(lines),
                        "hot_lines": n_hot,
                        "assoc": cache.assoc,
                        "pressure": round(pressure, 3),
                        "predicted_conflict_fetches": round(charged, 1),
                    },
                ),
            )
        )

    findings.sort(key=lambda t: (-t[0], t[1].location))
    diags = [d for _, d in findings[: cfg.max_reports]]
    if len(findings) > cfg.max_reports:
        diags.append(truncation_note("S001", cfg.max_reports, len(findings)))

    score = charged_total / total_warm_heat if total_warm_heat else 0.0
    metrics = {
        "n_conflict_sets": len(findings),
        "n_sets_used": len(ctx.warm_lines_by_set),
        "max_pressure": round(max_pressure, 4),
        "predicted_conflict_fetches": round(charged_total, 1),
        "conflict_score": round(score, 6),
    }
    return diags, metrics


@static_rule(
    "S002",
    "static-footprint-bound",
    "statically bounded footprint curve vs. cache capacity",
    Severity.WARNING,
)
def static_footprint_bound(
    ctx: StaticLintContext, cfg: StaticLintConfig
) -> tuple[list[Diagnostic], dict]:
    """The paper's defensiveness threshold, bounded without a trace.

    Sorting estimated line heats descending bounds the footprint curve
    from below: covering ``hot_coverage`` of all fetches needs at least
    ``lines_for_coverage(hot_coverage)`` distinct lines.  Compared
    against capacity ``C`` exactly like L005: ``H >= C`` predicts
    capacity misses even solo, ``2H >= C`` predicts thrashing against a
    symmetric peer.
    """
    h = ctx.lines_for_coverage(ctx.hot_coverage) if ctx.line_heat else 0
    c = ctx.cache.n_lines
    ratio = h / c if c else 0.0
    diags: list[Diagnostic] = []
    if h >= c:
        diags.append(
            Diagnostic(
                "S002",
                Severity.WARNING,
                "layout",
                f"bounded hot footprint ({h} lines for "
                f"{ctx.hot_coverage:.0%} coverage) exceeds cache capacity "
                f"({c} lines): capacity misses predicted even solo",
                {"bound_lines": h, "capacity_lines": c, "footprint_ratio": round(ratio, 4)},
            )
        )
    elif 2 * h >= c:
        diags.append(
            Diagnostic(
                "S002",
                Severity.INFO,
                "layout",
                f"bounded hot footprint ({h} lines) exceeds half of capacity "
                f"({c} lines): predicted to thrash against a symmetric peer",
                {"bound_lines": h, "capacity_lines": c, "footprint_ratio": round(ratio, 4)},
            )
        )
    metrics = {
        "bound_lines": h,
        "hot_lines": len(ctx.hot_lines),
        "capacity_lines": c,
        "footprint_ratio": round(ratio, 6),
    }
    return diags, metrics


@static_rule(
    "S003",
    "hot-fallthrough-break",
    "estimated-hot fall-through edges laid out non-adjacently",
    Severity.WARNING,
)
def hot_fallthrough_break(
    ctx: StaticLintContext, cfg: StaticLintConfig
) -> tuple[list[Diagnostic], dict]:
    """Frequency-weighted broken-fall-through cost.

    The static analogue of L002: instead of charging each broken edge
    its measured execution count, it is charged the estimated block
    frequency times the heuristic probability of actually taking the
    fall-through edge — so a loop body's broken fall-through outranks a
    once-per-run one even though both are "broken" statically.
    """
    freq = ctx.block_heat
    edge_prob = ctx.profile.edge_prob
    broken = []
    expected_jumps = 0.0
    gids, targets = ctx.broken_fallthroughs
    for gid, target in zip(gids.tolist(), targets.tolist()):
        weight = float(freq[gid]) * edge_prob[gid].get(target, 0.0)
        expected_jumps += weight
        if ctx.is_hot(gid):
            broken.append((weight, gid, target))

    broken.sort(key=lambda t: (-t[0], t[1]))
    cutoff = broken[0][0] * cfg.min_site_share if broken else 0.0
    reportable = [t for t in broken if t[0] >= cutoff]
    diags = [
        Diagnostic(
            "S003",
            Severity.WARNING,
            ctx.block_name(gid),
            f"estimated-hot fall-through to {ctx.block_name(target)} is broken",
            {
                "expected_jumps": round(weight, 1),
                "target": ctx.block_name(target),
            },
        )
        for weight, gid, target in reportable[: cfg.max_reports]
    ]
    if len(reportable) > cfg.max_reports:
        diags.append(truncation_note("S003", cfg.max_reports, len(reportable)))

    metrics = {
        "n_broken_hot": len(broken),
        "n_broken_total": len(gids),
        "added_jumps": int(ctx.amap.added_jumps),
        "expected_dynamic_jumps": round(expected_jumps, 1),
    }
    return diags, metrics


@static_rule(
    "S004",
    "far-hot-call",
    "frequent call edges with the callee placed far from the caller",
    Severity.WARNING,
)
def far_hot_call(
    ctx: StaticLintContext, cfg: StaticLintConfig
) -> tuple[list[Diagnostic], dict]:
    """Distance-aware call locality (Codestitcher-style).

    A frequent call whose callee entry lies more than one cache span
    (``size_bytes`` × ``call_distance_cache_spans``) away cannot share
    residency with its caller; the fetch engine ping-pongs between two
    distant regions.  Each far call edge is charged its estimated dynamic
    call count.
    """
    module, amap = ctx.module, ctx.amap
    budget = ctx.cache.size_bytes * cfg.call_distance_cache_spans
    site_freq = ctx.profile.call_site_freq()
    max_freq = max(site_freq.values(), default=0.0)
    cutoff = max_freq * cfg.min_site_share

    findings = []
    n_far = 0
    weighted_cost = 0.0
    max_distance = 0
    for gid, calls in site_freq.items():
        if calls <= 0.0 or calls < cutoff:
            continue
        block = module.block_by_gid(gid)
        callee = block.terminator.callee()
        assert callee is not None
        entry_gid = module.function(callee).entry.gid
        src_start, _ = amap.span(gid)
        dst_start, _ = amap.span(entry_gid)
        distance = abs(dst_start - src_start)
        if distance <= budget:
            continue
        n_far += 1
        over = distance - budget
        weighted_cost += calls * (over / max(1.0, budget))
        max_distance = max(max_distance, distance)
        findings.append(
            (
                calls,
                Diagnostic(
                    "S004",
                    Severity.WARNING,
                    ctx.block_name(gid),
                    f"frequent call to {callee} spans {distance} bytes "
                    f"(> {int(budget)}B cache span)",
                    {
                        "estimated_calls": round(calls, 1),
                        "distance_bytes": int(distance),
                        "budget_bytes": int(budget),
                        "callee": callee,
                    },
                ),
            )
        )

    findings.sort(key=lambda t: (-t[0], t[1].location))
    diags = [d for _, d in findings[: cfg.max_reports]]
    if len(findings) > cfg.max_reports:
        diags.append(truncation_note("S004", cfg.max_reports, len(findings)))

    metrics = {
        "n_far_calls": n_far,
        "n_call_sites": len(site_freq),
        "max_distance_bytes": int(max_distance),
        "weighted_distance_cost": round(weighted_cost, 1),
    }
    return diags, metrics


@static_rule(
    "S005",
    "static-layout-integrity",
    "permutation, overlap and gap audit of the address map",
    Severity.ERROR,
)
def static_layout_integrity(
    ctx: StaticLintContext, cfg: StaticLintConfig
) -> tuple[list[Diagnostic], dict]:
    """The trace pack's L006 rule, re-labelled for the static pack.

    Both packs run the one audit, so they report identical structural
    diagnostics for identical breakage (the certification tests pin this
    parity).
    """
    diags, metrics = layout_integrity(ctx, cfg)
    return [replace(d, rule="S005") for d in diags], metrics


def run_static_lint(
    module: Module,
    layout: "LayoutResult | AddressMap",
    cache: CacheConfig = PAPER_L1I,
    config: Optional[StaticLintConfig] = None,
    *,
    profile: Optional[StaticProfile] = None,
    layout_name: str = "",
) -> LintReport:
    """Run every enabled static rule over one concrete layout.

    ``profile`` lets callers that lint several layouts of one module
    reuse the (layout-independent) frequency estimate; when omitted it is
    computed here.
    """
    config = config or StaticLintConfig()
    amap, name = resolve_layout(layout, layout_name)
    if profile is None:
        profile = estimate_frequencies(module, config.frequency)
    ctx = StaticLintContext(
        module, amap, cache, profile, hot_coverage=config.hot_coverage
    )
    return run_rules(ctx, config, name)
