"""``python -m repro.compiler`` — compile a suite program.

Examples::

    python -m repro.compiler syn-sjeng
    python -m repro.compiler omnetpp --optimizers bb-affinity function-trg \
        --build-dir build/omnetpp --scale 0.5
"""

from __future__ import annotations

import argparse
import sys

from ..core.optimizers import BASELINE, LAYOUTS, OPTIMIZERS
from ..workloads.suite import build as build_suite_program
from ..workloads.suite import cli_program, scaled_spec
from .driver import Driver


def main(argv: list[str] | None = None) -> int:
    known = [name for name in LAYOUTS if name != BASELINE]
    parser = argparse.ArgumentParser(
        prog="repro.compiler",
        description="Instrument, optimize and evaluate one suite program.",
    )
    parser.add_argument("program", help="suite program name (e.g. syn-sjeng)")
    parser.add_argument(
        "--optimizers",
        nargs="+",
        default=list(OPTIMIZERS),
        choices=known,
        metavar="NAME",
        help=f"layout optimizers to run (default: the paper's four; known: {', '.join(known)})",
    )
    parser.add_argument(
        "--build-dir", default=None, help="directory to write artifacts into"
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="trace-budget multiplier in (0,1]"
    )
    parser.add_argument(
        "--no-evaluate", action="store_true", help="skip the ref-input evaluation"
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="statically analyze every produced layout (see python -m repro.lint)",
    )
    parser.add_argument(
        "--static-lint",
        action="store_true",
        help="run the profile-free S-pack over every produced layout "
        "(see python -m repro.staticlint)",
    )
    parser.add_argument(
        "--profile-source",
        choices=["trace", "static"],
        default="trace",
        help="optimization profile: an instrumented test run ('trace', the "
        "paper's pipeline) or the heuristic CFG walk ('static', no execution)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")
    program = cli_program(parser, args.program)

    spec = scaled_spec(program.spec, args.scale)
    _, module = build_suite_program(
        args.program, ref_blocks=spec.ref_blocks, test_blocks=spec.test_blocks
    )

    driver = Driver(optimizers=args.optimizers, profile_source=args.profile_source)
    result = driver.build(
        module,
        spec.test_input(),
        None if args.no_evaluate else spec.ref_input(),
        build_dir=args.build_dir,
        lint=args.lint,
        static_lint=args.static_lint,
    )

    print(f"program {result.program}: {module.n_functions} functions, "
          f"{module.n_blocks} blocks")
    for name, layout in result.layouts.items():
        line = f"  {name:20s} bytes={layout.total_bytes:7d} jumps={layout.added_jumps:4d}"
        if name in result.miss_ratios:
            line += f"  miss/instr={result.miss_ratios[name]:.4%}"
        if name in result.lint_reports:
            s = result.lint_reports[name].summary()
            line += f"  lint={s['errors']}E/{s['warnings']}W"
        if name in result.static_lint_reports:
            s = result.static_lint_reports[name].summary()
            line += f"  static={s['errors']}E/{s['warnings']}W"
        print(line)
    if result.miss_ratios:
        print(f"best layout: {result.best_layout()}")
    if result.build_dir:
        print(f"artifacts in {result.build_dir}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
