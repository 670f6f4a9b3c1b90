"""``python -m repro.lint`` — statically analyze a suite program's layouts.

Examples::

    python -m repro.lint syn-sjeng
    python -m repro.lint syn-gcc --layout bb-affinity --format json
    python -m repro.lint syn-mcf --compare baseline bb-trg
    python -m repro.lint syn-sjeng --disable L002 --severity L004=error
    python -m repro.lint --list-rules

Exit codes: 0 — no ERROR diagnostics; 1 — at least one ERROR diagnostic;
2 — usage error.
"""

from __future__ import annotations

import argparse
import sys

from ..core.optimizers import LAYOUTS
from ..robust.errors import ReproError
from ..workloads.suite import cli_program
from .compare import compare_layouts
from .diagnostics import Severity, render_json, render_text
from .rules import LintConfig, all_rules, run_lint


def _parse_severity_override(text: str) -> tuple[str, Severity]:
    try:
        rule_id, sev = text.split("=", 1)
        return rule_id.strip(), Severity.parse(sev)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected RULE=SEVERITY (e.g. L004=error), got {text!r}: {exc}"
        )


def _list_rules() -> int:
    for r in all_rules():
        print(f"{r.id}  {r.name:<24} [{r.default_severity.value}]  {r.summary}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Rule-based static analysis of code layouts (no simulation).",
    )
    parser.add_argument(
        "program", nargs="?", help="suite program name (e.g. syn-sjeng)"
    )
    parser.add_argument(
        "--layout",
        default="baseline",
        choices=list(LAYOUTS),
        help="layout to lint (default: baseline)",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("A", "B"),
        choices=list(LAYOUTS),
        help="lint two layouts and explain which one is statically better",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    parser.add_argument(
        "--hot-coverage",
        type=float,
        default=0.9,
        help="fraction of dynamic occurrences the hot set covers (default 0.9)",
    )
    parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="RULE",
        help="disable a rule by id (repeatable)",
    )
    parser.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="RULE=LEVEL",
        type=_parse_severity_override,
        help="override a rule's severity, e.g. L004=error (repeatable)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="trace-budget multiplier in (0,1]"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules()
    if args.program is None:
        parser.error("program is required unless --list-rules is given")

    if not 0 < args.hot_coverage <= 1.0:
        parser.error("--hot-coverage must be in (0, 1]")

    known_ids = {r.id for r in all_rules()}
    for rule_id in args.disable:
        if rule_id not in known_ids:
            parser.error(f"--disable: unknown rule {rule_id!r}")
    for rule_id, _ in args.severity:
        if rule_id not in known_ids:
            parser.error(f"--severity: unknown rule {rule_id!r}")

    if not 0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")
    cli_program(parser, args.program)

    from ..experiments.pipeline import Lab

    lab = Lab(scale=args.scale)
    try:
        prepared = lab.program(args.program)
    except ReproError as exc:
        parser.error(str(exc))
    module, bundle, cache = prepared.module, prepared.test_bundle, lab.cache_cfg
    config = LintConfig(
        hot_coverage=args.hot_coverage,
        disabled=frozenset(args.disable),
        severity_overrides=dict(args.severity),
    )

    if args.compare:
        name_a, name_b = args.compare
        cmp = compare_layouts(
            module, bundle, lab.layout(args.program, name_a),
            lab.layout(args.program, name_b), cache, config,
            name_a=name_a, name_b=name_b,
        )
        if args.format == "json":
            import json

            print(json.dumps(cmp.to_dict(), indent=2))
        else:
            print(cmp.render_text())
        bad = not (cmp.report_a.ok and cmp.report_b.ok)
        return 1 if bad else 0

    report = run_lint(
        module, lab.layout(args.program, args.layout), bundle, cache, config,
        layout_name=args.layout,
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
