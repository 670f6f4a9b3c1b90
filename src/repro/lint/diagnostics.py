"""Diagnostics core of the static layout analyzer.

A :class:`Diagnostic` is one finding: a rule id, a severity, a location in
the code image (a block, a cache set, a line, or the layout as a whole) and
the measured values that triggered it.  A :class:`LintReport` bundles every
diagnostic one lint run produced together with the per-rule aggregate
metrics, and knows how to render itself for machines (JSON) and humans
(compiler-style text).

Severity semantics mirror the IR verifier's split between hard errors and
warnings:

* ``ERROR`` — the layout is structurally broken (not a permutation,
  overlapping blocks).  The CLI exits non-zero.
* ``WARNING`` — the layout is legal but statically predicted to behave
  badly in the cache (conflict hotspots, blown footprint).
* ``INFO`` — context that explains a warning or quantifies a cost without
  predicting a defect by itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional

__all__ = ["Severity", "Diagnostic", "LintReport", "truncation_note", "render_text", "render_json"]


class Severity(str, Enum):
    """Diagnostic severity, ordered ``INFO < WARNING < ERROR``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls(text.strip().lower())
        except ValueError:
            names = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown severity {text!r} (expected one of: {names})")


_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule.

    ``location`` is a human-oriented anchor: ``"func:block"`` for
    block-level findings, ``"set 17"`` / ``"line 412"`` for geometry-level
    ones, ``"layout"`` for whole-image findings.  ``measured`` carries the
    numbers behind the message so tooling never has to parse prose.
    """

    rule: str
    severity: Severity
    location: str
    message: str
    measured: Mapping[str, object] = field(default_factory=dict)

    @property
    def sort_key(self) -> tuple[str, str, str]:
        """Canonical ordering key: ``(rule, location, message)``.

        Location strings encode the anchor hierarchy (``func:block``,
        ``set N``, ``layout``), so sorting by this key groups findings by
        rule, then by where they point.  Every rendering path sorts by it
        (errors first in text output) so report output is a pure function
        of the finding *set* — independent of rule execution or emission
        order, which keeps report diffs and golden tests stable.
        """
        return (self.rule, self.location, self.message)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
            "measured": dict(self.measured),
        }

    def format(self) -> str:
        parts = f"{self.severity.value.upper():7s} {self.rule} [{self.location}] {self.message}"
        if self.measured:
            detail = ", ".join(f"{k}={_fmt_value(v)}" for k, v in self.measured.items())
            parts += f"  ({detail})"
        return parts


def truncation_note(rule_id: str, shown: int, total: int) -> Diagnostic:
    """The INFO note a rule appends when it shows only its top findings."""
    return Diagnostic(
        rule_id,
        Severity.INFO,
        "layout",
        f"{total - shown} further finding(s) suppressed (showing top {shown})",
        {"n_total": total, "n_shown": shown},
    )


def _fmt_value(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


@dataclass
class LintReport:
    """Everything one lint run produced for one layout.

    ``metrics`` maps each rule id to that rule's aggregate measurements
    (populated even when the rule found nothing), so downstream consumers —
    :func:`repro.lint.compare.compare_layouts`, the correlation tests — can
    score layouts without re-deriving anything.
    """

    program: str
    layout: str
    cache: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: rule id -> aggregate metric values (always one entry per rule run).
    metrics: dict[str, dict] = field(default_factory=dict)
    #: rule ids that ran, in execution order (includes clean rules).
    rules_run: list[str] = field(default_factory=list)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def by_rule(self, rule: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def sorted_diagnostics(self) -> list[Diagnostic]:
        """Diagnostics in canonical ``(rule, location, message)`` order."""
        return sorted(self.diagnostics, key=lambda d: d.sort_key)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    @property
    def n_errors(self) -> int:
        return self.count(Severity.ERROR)

    @property
    def n_warnings(self) -> int:
        return self.count(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity diagnostic was emitted."""
        return self.n_errors == 0

    def max_severity(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max((d.severity for d in self.diagnostics), key=lambda s: s.rank)

    def summary(self) -> dict:
        """Small JSON-serializable digest (used by build reports)."""
        per_rule = {rule: 0 for rule in self.rules_run}
        for d in self.diagnostics:
            per_rule[d.rule] = per_rule.get(d.rule, 0) + 1
        return {
            "errors": self.n_errors,
            "warnings": self.n_warnings,
            "infos": self.count(Severity.INFO),
            "by_rule": per_rule,
        }

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "layout": self.layout,
            "cache": self.cache,
            "summary": self.summary(),
            "rules": {
                rule: {
                    "n_diagnostics": len(self.by_rule(rule)),
                    "metrics": self.metrics.get(rule, {}),
                }
                for rule in self.rules_run
            },
            "diagnostics": [d.to_dict() for d in self.sorted_diagnostics()],
        }


def render_json(report: LintReport, *, indent: int = 2) -> str:
    """Machine-readable rendering of a report."""
    return json.dumps(report.to_dict(), indent=indent, sort_keys=False)


def render_text(report: LintReport) -> str:
    """Human-readable, compiler-style rendering of a report."""
    head = f"lint {report.program} / {report.layout} ({report.cache})"
    lines = [head, "-" * len(head)]
    if not report.diagnostics:
        lines.append("clean: no diagnostics")
    else:
        order = sorted(
            report.diagnostics, key=lambda d: (-d.severity.rank, *d.sort_key)
        )
        lines.extend(d.format() for d in order)
    s = report.summary()
    lines.append(
        f"{s['errors']} error(s), {s['warnings']} warning(s), "
        f"{s['infos']} info(s) from {len(report.rules_run)} rule(s)"
    )
    return "\n".join(lines)
