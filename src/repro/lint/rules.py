"""Rule registry and the lint driver.

A *rule* is a function ``(LintContext, LintConfig) -> (diagnostics,
metrics)`` registered under a stable id (``L001`` ...).  The registry keeps
the catalog queryable (`python -m repro.lint --list-rules`), and
:class:`LintConfig` carries the per-run policy: disabled rules, severity
overrides, the heat model's coverage threshold and the rules' tunables.

Rules must emit their findings as :class:`~repro.lint.diagnostics.Diagnostic`
objects and return their aggregate measurements as a plain dict even when
clean, so every report carries the full metric set for layout comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Protocol

import numpy as np

from ..cache.config import PAPER_L1I, CacheConfig
from ..engine.instrument import TraceBundle
from ..ir.codegen import AddressMap
from ..ir.module import Module
from ..ir.transforms import LayoutResult
from .context import LintContext
from .diagnostics import Diagnostic, LintReport, Severity

__all__ = [
    "Rule",
    "RuleRegistry",
    "LintConfig",
    "rule",
    "all_rules",
    "run_rules",
    "run_lint",
]

#: A rule callable: ``(context, config) -> (diagnostics, metrics)``.  The
#: types differ per rule pack (trace-driven rules take ``(LintContext,
#: LintConfig)``, the static pack its context subclass and config), so
#: the registry stays agnostic.
RuleFn = Callable[..., tuple[list[Diagnostic], dict]]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    id: str
    name: str
    summary: str
    default_severity: Severity
    fn: RuleFn


class RuleRegistry:
    """A catalog of lint rules under stable ids.

    Each rule pack owns one instance (the trace-driven L-pack here, the
    static S-pack in :mod:`repro.staticlint`), so packs can never collide
    on ids and tools can enumerate each catalog independently.  The
    optional ``loader`` is called once before the first query — rule
    packs register themselves on import, and deferring that import keeps
    registry modules import-light and cycle-free.
    """

    def __init__(self, loader: Optional[Callable[[], None]] = None) -> None:
        self._rules: dict[str, Rule] = {}
        self._loader = loader
        self._loaded = loader is None

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self._loaded = True
            assert self._loader is not None
            self._loader()

    def rule(
        self, id: str, name: str, summary: str, default_severity: Severity
    ) -> Callable[[RuleFn], RuleFn]:
        """Decorator registering a rule function under ``id``."""

        def register(fn: RuleFn) -> RuleFn:
            if id in self._rules:
                raise ValueError(f"rule id {id!r} already registered")
            self._rules[id] = Rule(id, name, summary, default_severity, fn)
            return fn

        return register

    def all(self) -> list[Rule]:
        """Every registered rule, ordered by id."""
        self._ensure_loaded()
        return [self._rules[k] for k in sorted(self._rules)]


def _ensure_rulepack() -> None:
    # The rule pack registers itself on import; importing it lazily here
    # keeps `rules` import-light and avoids an import cycle with it.
    from . import rulepack  # noqa: F401


#: the trace-driven rule pack's registry (L001...).
_REGISTRY = RuleRegistry(loader=_ensure_rulepack)


def rule(
    id: str, name: str, summary: str, default_severity: Severity
) -> Callable[[RuleFn], RuleFn]:
    """Decorator registering a rule in the trace-driven (L-pack) registry."""
    return _REGISTRY.rule(id, name, summary, default_severity)


def all_rules() -> list[Rule]:
    """Every registered trace-driven rule, ordered by id."""
    return _REGISTRY.all()


@dataclass(frozen=True)
class LintConfig:
    """Per-run lint policy and rule tunables."""

    #: fraction of dynamic occurrences the hot set must cover.
    hot_coverage: float = 0.9
    #: rule ids to skip entirely.
    disabled: frozenset[str] = frozenset()
    #: rule id -> severity every diagnostic of that rule is forced to.
    severity_overrides: Mapping[str, Severity] = field(default_factory=dict)
    #: cap on per-finding diagnostics a rule emits (aggregates are exempt).
    max_reports: int = 20
    #: L003: a cold run inside hot code is flagged below this many lines.
    interleave_max_cold_lines: int = 2
    #: L004: a hot-touched line below this hot-byte fraction is fragmented.
    line_utilization_threshold: float = 0.5
    #: L004: warn when more than this fraction of hot lines are fragmented.
    fragmentation_warn_fraction: float = 0.25

    def enabled_rules(self) -> list[Rule]:
        return [r for r in all_rules() if r.id not in self.disabled]


class PackConfig(Protocol):
    """What the rule loop reads of a pack's config."""

    @property
    def severity_overrides(self) -> Mapping[str, Severity]: ...

    def enabled_rules(self) -> list[Rule]: ...


def resolve_layout(
    layout: "LayoutResult | AddressMap", layout_name: str
) -> tuple[AddressMap, str]:
    """The address map to lint and the report's layout label.

    A :class:`~repro.ir.transforms.LayoutResult` is labelled by its
    note or kind, a bare address map ``"layout"``, unless named.
    """
    if isinstance(layout, LayoutResult):
        return layout.address_map, layout_name or layout.note or layout.kind.value
    return layout, layout_name or "layout"


def run_rules(ctx: LintContext, config: PackConfig, layout_name: str) -> LintReport:
    """Run a pack's enabled rules over one context (both packs' driver)."""
    report = LintReport(
        program=ctx.module.name, layout=layout_name, cache=ctx.cache.describe()
    )
    for r in config.enabled_rules():
        diags, metrics = r.fn(ctx, config)
        override = config.severity_overrides.get(r.id)
        if override is not None:
            diags = [replace(d, severity=override) for d in diags]
        report.extend(diags)
        report.metrics[r.id] = metrics
        report.rules_run.append(r.id)
    return report


def run_lint(
    module: Module,
    layout: "LayoutResult | AddressMap",
    bundle: TraceBundle,
    cache: CacheConfig = PAPER_L1I,
    config: Optional[LintConfig] = None,
    *,
    layout_name: str = "",
) -> LintReport:
    """Run every enabled rule over one concrete layout.

    ``layout`` may be a :class:`~repro.ir.transforms.LayoutResult` (its
    kind/note label the report) or a bare address map.  The heat is the
    trace's execution count per block.
    """
    config = config or LintConfig()
    amap, name = resolve_layout(layout, layout_name)
    heat = np.bincount(bundle.bb_trace, minlength=module.n_blocks).astype(np.int64)
    ctx = LintContext(module, amap, cache, heat, hot_coverage=config.hot_coverage)
    return run_rules(ctx, config, name)
