"""Profile one kernel pass per backend tier: where does the time go?

Runs cProfile over a single stack-distance histogram pass, a single
affinity coverage sweep, and a single TRG build on each backend tier
(``numpy``/``scalar``), and writes the top-N cumulative-time tables to
``artifacts/profile_kernels_<tier>.txt``.
This is the drill-down companion to ``python -m repro.perf
kernel-bench``: the bench says *how much* faster a tier is, the profile
says *which* inner pass the time moved to.

Usage::

    python benchmarks/profile_kernels.py [--scale 0.25] [--top 25]
        [--backend numpy,scalar] [--out-dir artifacts]

Purely observational — no gates, no parity checks (those live in the
bench and in tests/perf/test_backends.py).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path


def _profile(label: str, fn, top: int) -> str:
    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.sort_stats("cumulative").print_stats(top)
    return f"== {label} ==\n{buf.getvalue()}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--program", default="syn-gcc", help="suite program")
    parser.add_argument(
        "--scale", type=float, default=0.25, help="trace-budget multiplier"
    )
    parser.add_argument(
        "--n-sets", type=int, default=128, help="histogram geometry family"
    )
    parser.add_argument(
        "--w-max", type=int, default=20, help="affinity sweep upper bound"
    )
    parser.add_argument(
        "--window-blocks", type=int, default=256, help="TRG reuse window"
    )
    parser.add_argument(
        "--top", type=int, default=25, help="rows per cumulative-time table"
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="TIERS",
        help="comma-separated tiers to profile (default: both)",
    )
    parser.add_argument(
        "--out-dir",
        default="artifacts",
        metavar="DIR",
        help="where the profile tables land",
    )
    args = parser.parse_args(argv)

    from repro.core.layout import Granularity
    from repro.core.optimizers import OptimizerConfig, _prepare_trace
    from repro.experiments.pipeline import BASELINE, Lab
    from repro.perf.backends import TIERS, resolve_backend

    if args.backend:
        names = [s.strip() for s in args.backend.split(",") if s.strip()]
    else:
        names = list(TIERS)

    lab = Lab(scale=args.scale)
    stream = lab.lines(args.program, BASELINE)
    prepared = lab.program(args.program)
    trace = _prepare_trace(
        prepared.test_bundle, Granularity("function"), OptimizerConfig()
    )
    print(
        f"profiling {args.program}: {len(stream)} fetch lines, "
        f"{len(trace)} analysis accesses, tiers {names}"
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        backend = resolve_backend(name)  # typos fail loudly
        report = (
            f"# kernel profile: tier={name} program={args.program} "
            f"scale={args.scale}\n\n"
            + _profile(
                f"histogram (n_sets={args.n_sets})",
                lambda: backend.histogram(stream, args.n_sets),
                args.top,
            )
            + _profile(
                f"affinity (w_max={args.w_max})",
                lambda: backend.affinity(trace, w_max=args.w_max),
                args.top,
            )
            + _profile(
                f"trg (window_blocks={args.window_blocks})",
                lambda: backend.trg(trace, args.window_blocks),
                args.top,
            )
        )
        path = out_dir / f"profile_kernels_{name}.txt"
        path.write_text(report)
        print(f"  {name}: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
