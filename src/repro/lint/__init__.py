"""Static layout analyzer: rule-based linting of concrete code layouts.

The simulator answers "how does this layout behave?" by replaying a trace;
the linter answers "what is wrong with this layout?" by inspecting the code
image itself — addresses, cache sets, line packing, profile heat — in
milliseconds.  See ``docs/linting.md`` for the rule catalog.

Public surface:

* :func:`run_lint` — lint one layout, returning a :class:`LintReport`;
* :func:`compare_layouts` / :func:`conflict_score` — static layout diffs;
* :class:`LintConfig`, :func:`all_rules` — policy and the rule registry;
* :mod:`repro.lint.integrity` — the audits shared with the IR transforms;
* ``python -m repro.lint`` — the CLI.

Attributes are resolved lazily (PEP 562): :mod:`repro.ir.transforms` imports
:mod:`repro.lint.integrity` while ``repro.ir`` is still initializing, which
must not drag in the full rule machinery (and its ``repro.engine``
dependency) at that point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "Diagnostic",
    "LayoutComparison",
    "LayoutError",
    "LintConfig",
    "LintContext",
    "LintReport",
    "Rule",
    "Severity",
    "all_rules",
    "compare_layouts",
    "conflict_score",
    "render_json",
    "render_text",
    "run_lint",
]

_EXPORTS = {
    "Diagnostic": ("repro.lint.diagnostics", "Diagnostic"),
    "LintReport": ("repro.lint.diagnostics", "LintReport"),
    "Severity": ("repro.lint.diagnostics", "Severity"),
    "render_json": ("repro.lint.diagnostics", "render_json"),
    "render_text": ("repro.lint.diagnostics", "render_text"),
    "LayoutError": ("repro.lint.integrity", "LayoutError"),
    "LintContext": ("repro.lint.context", "LintContext"),
    "LintConfig": ("repro.lint.rules", "LintConfig"),
    "Rule": ("repro.lint.rules", "Rule"),
    "all_rules": ("repro.lint.rules", "all_rules"),
    "run_lint": ("repro.lint.rules", "run_lint"),
    "LayoutComparison": ("repro.lint.compare", "LayoutComparison"),
    "compare_layouts": ("repro.lint.compare", "compare_layouts"),
    "conflict_score": ("repro.lint.compare", "conflict_score"),
}

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from .compare import LayoutComparison, compare_layouts, conflict_score  # noqa: F401
    from .context import LintContext  # noqa: F401
    from .diagnostics import (  # noqa: F401
        Diagnostic,
        LintReport,
        Severity,
        render_json,
        render_text,
    )
    from .integrity import LayoutError  # noqa: F401
    from .rules import LintConfig, Rule, all_rules, run_lint  # noqa: F401


def __getattr__(name: str) -> object:
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
