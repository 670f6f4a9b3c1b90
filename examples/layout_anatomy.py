#!/usr/bin/env python3
"""Why a layout wins: line utilization and set pressure.

Uses the trace-driven linter (:func:`repro.lint.run_lint`) to dissect one
program's baseline and optimized layouts — the mechanics behind the
miss-ratio tables.  L004 measures how much of each hot line is hot code,
L001 how much hot-fetch volume lands on sets holding more hot lines than
ways.

Run:  python examples/layout_anatomy.py
"""

from repro.cache import PAPER_L1I
from repro.core import OPTIMIZERS, OptimizerConfig
from repro.engine import collect_trace
from repro.ir import baseline_layout
from repro.lint import run_lint
from repro.workloads import build


def main() -> None:
    prog, module = build("syn-gobmk", ref_blocks=80_000, test_blocks=40_000)
    profile = collect_trace(module, prog.spec.test_input())

    print(f"{module.name}: {module.n_blocks} blocks, "
          f"{module.size_bytes / 1024:.0f} KB code\n")

    print(f"{'layout':20s} {'hot lines':>9s} {'utilization':>12s} "
          f"{'max pressure':>13s} {'conflict score':>15s}")
    layouts = {"baseline": baseline_layout(module)}
    cfg = OptimizerConfig()
    for name in ("function-affinity", "bb-affinity", "bb-trg"):
        layouts[name] = OPTIMIZERS[name](module, profile, cfg)
    for name, layout in layouts.items():
        metrics = run_lint(module, layout, profile, PAPER_L1I).metrics
        util, sets = metrics["L004"], metrics["L001"]
        print(f"{name:20s} {util['n_hot_lines']:9d} "
              f"{util['mean_utilization']:11.1%} "
              f"{sets['max_pressure']:13.2f} {sets['conflict_score']:15.4f}")

    print("\nReading: the optimizers shrink the hot-line footprint (higher "
          "utilization = less cold code sharing hot lines) and relieve the "
          "cache sets (lower pressure = fewer hot lines per set than ways).")


if __name__ == "__main__":
    main()
