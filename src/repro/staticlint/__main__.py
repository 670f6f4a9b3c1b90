"""``python -m repro.staticlint`` — profile-free layout analysis CLI.

Subcommands::

    python -m repro.staticlint lint syn-sjeng
    python -m repro.staticlint lint syn-gcc --layout bb-affinity --format json
    python -m repro.staticlint certify --programs syn-gcc syn-gobmk \
        --min-conflict-rho 0.6 --bench BENCH_perf.json
    python -m repro.staticlint list-rules

``lint`` runs the static S-pack over a layout built **without any
trace**: layout optimizers that normally consume an instrumented profile
are fed the synthetic bundle of
:func:`~repro.staticlint.profile.synthesize_bundle` (the lab's
``profile_source="static"`` mode), so the whole pipeline is profile-free.

``certify`` cross-checks the static predictions against the trace-driven
simulator (Spearman rank correlations; see
:mod:`repro.staticlint.certify`) and optionally gates on thresholds —
the CI smoke job runs it on two synthetic workloads.

Exit codes: 0 — success (``lint``: no ERROR diagnostics; ``certify``:
all programs clear the thresholds); 1 — analysis failure (ERROR
diagnostics / threshold missed); 2 — usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..core.optimizers import LAYOUTS
from ..lint.diagnostics import Severity, render_json, render_text
from ..robust.errors import ReproError
from ..workloads.suite import cli_program
from .certify import certify_suite
from .rulepack import StaticLintConfig, all_static_rules, run_static_lint

#: default programs of the certification gate (both have oversubscribed
#: cache sets at full scale; syn-mcf does not and would be degenerate).
DEFAULT_CERTIFY_PROGRAMS = ("syn-gcc", "syn-gobmk")


def _parse_severity_override(text: str) -> tuple[str, Severity]:
    try:
        rule_id, sev = text.split("=", 1)
        return rule_id.strip(), Severity.parse(sev)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected RULE=SEVERITY (e.g. S003=error), got {text!r}: {exc}"
        )


def _list_rules() -> int:
    for r in all_static_rules():
        print(f"{r.id}  {r.name:<24} [{r.default_severity.value}]  {r.summary}")
    return 0


def _run_lint(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from ..experiments.pipeline import Lab

    if not 0 < args.hot_coverage <= 1.0:
        parser.error("--hot-coverage must be in (0, 1]")
    if not 0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")
    known_ids = {r.id for r in all_static_rules()}
    for rule_id in args.disable:
        if rule_id not in known_ids:
            parser.error(f"--disable: unknown rule {rule_id!r}")
    for rule_id, _ in args.severity:
        if rule_id not in known_ids:
            parser.error(f"--severity: unknown rule {rule_id!r}")
    cli_program(parser, args.program)

    lab = Lab(scale=args.scale, profile_source="static")
    try:
        prepared = lab.program(args.program)
        layout = lab.layout(args.program, args.layout)
    except (KeyError, ReproError) as exc:
        parser.error(str(exc))

    config = StaticLintConfig(
        hot_coverage=args.hot_coverage,
        disabled=frozenset(args.disable),
        severity_overrides=dict(args.severity),
    )
    report = run_static_lint(
        prepared.module, layout, lab.cache_cfg, config, layout_name=args.layout
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


def _run_certify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not 0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")
    if not 0 < args.hot_coverage <= 1.0:
        parser.error("--hot-coverage must be in (0, 1]")
    for name in args.programs:
        cli_program(parser, name)

    try:
        results = certify_suite(
            args.programs,
            layout_name=args.layout,
            scale=args.scale,
            hot_coverage=args.hot_coverage,
        )
    except (KeyError, ReproError) as exc:
        parser.error(str(exc))

    failures = [
        r for r in results
        if not r.passes(args.min_conflict_rho, args.min_hotness_rho)
    ]

    if args.format == "json":
        payload = {
            "layout": args.layout,
            "scale": args.scale,
            "min_conflict_rho": args.min_conflict_rho,
            "min_hotness_rho": args.min_hotness_rho,
            "ok": not failures,
            "results": [r.to_dict() for r in results],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        header = (
            f"{'program':<16} {'layout':<12} {'conflict_rho':>12} "
            f"{'hotness_rho':>11} {'lines':>6} {'diags':>5} "
            f"{'static_s':>8} {'sim_s':>7}"
        )
        print(header)
        print("-" * len(header))
        for r in results:
            print(
                f"{r.program:<16} {r.layout:<12} {r.conflict_rho:>12.4f} "
                f"{r.hotness_rho:>11.4f} {r.n_lines:>6} {r.diagnostics:>5} "
                f"{r.static_seconds:>8.3f} {r.sim_seconds:>7.3f}"
            )
        for r in failures:
            print(
                f"FAIL {r.program}: conflict_rho {r.conflict_rho:.4f} "
                f"(need >= {args.min_conflict_rho}) or hotness_rho "
                f"{r.hotness_rho:.4f} (need >= {args.min_hotness_rho})",
                file=sys.stderr,
            )
        if not failures:
            print(
                f"certification OK: {len(results)} program(s) at "
                f"conflict_rho >= {args.min_conflict_rho}"
            )

    if args.bench is not None:
        from ..perf.telemetry import merge_bench_section, rate

        seconds = sum(r.static_seconds for r in results)
        diags = sum(r.diagnostics for r in results)
        section = {
            "certify": [r.to_dict() for r in results],
            "min_conflict_rho": args.min_conflict_rho,
            "ok": not failures,
            "certified": len(results),
            "diagnostics": diags,
            "seconds": round(seconds, 4),
            "diagnostics_per_s": round(rate(diags, seconds), 1),
        }
        merge_bench_section(args.bench, "staticlint_bench", section)
        print(f"staticlint_bench section written to {args.bench}")

    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.staticlint",
        description="Profile-free static layout analysis and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint_p = sub.add_parser(
        "lint", help="run the static S-pack over a (profile-free) layout"
    )
    lint_p.add_argument("program", help="suite program name (e.g. syn-sjeng)")
    lint_p.add_argument(
        "--layout",
        default="baseline",
        choices=list(LAYOUTS),
        help="layout to lint, built from the static profile (default: baseline)",
    )
    lint_p.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    lint_p.add_argument(
        "--hot-coverage",
        type=float,
        default=0.9,
        help="fraction of estimated executions the hot set covers (default 0.9)",
    )
    lint_p.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="RULE",
        help="disable a rule by id (repeatable)",
    )
    lint_p.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="RULE=LEVEL",
        type=_parse_severity_override,
        help="override a rule's severity, e.g. S003=error (repeatable)",
    )
    lint_p.add_argument(
        "--scale", type=float, default=1.0, help="budget multiplier in (0,1]"
    )

    cert_p = sub.add_parser(
        "certify",
        help="cross-check static predictions against the trace-driven simulator",
    )
    cert_p.add_argument(
        "--programs",
        nargs="+",
        default=list(DEFAULT_CERTIFY_PROGRAMS),
        metavar="PROGRAM",
        help=f"suite programs to certify (default: {' '.join(DEFAULT_CERTIFY_PROGRAMS)})",
    )
    cert_p.add_argument(
        "--layout",
        default="baseline",
        choices=list(LAYOUTS),
        help="layout to certify against (default: baseline)",
    )
    cert_p.add_argument(
        "--scale", type=float, default=1.0, help="budget multiplier in (0,1]"
    )
    cert_p.add_argument(
        "--hot-coverage", type=float, default=0.9, help="hot-set coverage fraction"
    )
    cert_p.add_argument(
        "--min-conflict-rho",
        type=float,
        default=0.6,
        help="fail (exit 1) if any program's conflict Spearman falls below this",
    )
    cert_p.add_argument(
        "--min-hotness-rho",
        type=float,
        default=0.0,
        help="fail (exit 1) if any program's hotness Spearman falls below this",
    )
    cert_p.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    cert_p.add_argument(
        "--bench",
        default=None,
        metavar="PATH",
        help="merge certification numbers into this BENCH_perf.json",
    )

    sub.add_parser("list-rules", help="print the static rule catalog and exit")

    args = parser.parse_args(argv)

    if args.command == "list-rules":
        return _list_rules()
    if args.command == "lint":
        return _run_lint(args, parser)
    if args.command == "certify":
        return _run_certify(args, parser)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
