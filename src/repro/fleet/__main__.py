"""``python -m repro.fleet`` — fleet co-run scheduling CLI.

Subcommands:

``run``
    Simulate one fleet: build per-model footprint curves, sweep the
    co-run pair matrix, place N instances onto M sockets under every
    policy, and print the layout-aware vs layout-oblivious comparison.

``bench``
    The fleet-bench CI gate.  First a randomized **parity gate**: the
    vectorized composition path (:class:`~repro.fleet.compose.ComposedGroup`)
    must answer bit-identically to the scalar
    :func:`~repro.locality.hotl.shared_fill_time_scalar` /
    :func:`~repro.locality.hotl.shared_miss_ratios_scalar` oracles on
    random curve sets (exit 1 on any divergence).  Then a full fleet
    run with three asserted claims, all read back from the telemetry
    report itself:

    * the co-run matrix resolved at least ``--min-cells`` cells
      (default 100000);
    * those cells came from at most ``--max-curve-passes`` fresh
      footprint-curve computations (default 29 — one per workload
      model);
    * the best layout-aware placement's total predicted misses strictly
      beat the best layout-oblivious placement's.

    ``--out`` writes the full bench telemetry report (with a
    ``fleet_bench`` section) to ``BENCH_fleet.json``; ``--bench``
    merges the section into an existing report instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np


def _parity_gate(seed: int, trials: int) -> list[str]:
    """Randomized bit-identity check of the vectorized composition path.

    Random traces of unequal lengths -> real footprint curves -> every
    (group, capacity) answer compared ``==`` (no tolerance) against the
    scalar oracles, including capacities above the combined footprint
    (the no-contention branch) and within snap tolerance of it.
    """
    from ..locality.footprint import footprint_curve
    from ..locality.hotl import (
        shared_fill_time_scalar,
        shared_miss_ratios_scalar,
    )
    from .compose import CurveSet

    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for trial in range(trials):
        k = int(rng.integers(2, 6))
        curves = [
            footprint_curve(
                rng.integers(0, int(rng.integers(4, 40)), size=int(rng.integers(8, 300)))
            )
            for _ in range(k)
        ]
        total_m = sum(c.m for c in curves)
        caps = np.concatenate(
            [
                rng.uniform(0.5, max(total_m * 1.2, 2.0), size=8),
                [float(total_m), total_m + 1e-10, total_m * 2.0],
            ]
        )
        group = CurveSet(curves).group(range(k))
        ws = group.fill_times(caps)
        grid = group.miss_ratio_matrix(caps)
        for ci, cap in enumerate(caps):
            w_ref = shared_fill_time_scalar(curves, float(cap))
            if int(ws[ci]) != w_ref:
                failures.append(
                    f"trial {trial}: fill_time({cap!r}) = {int(ws[ci])}, "
                    f"scalar oracle {w_ref}"
                )
                continue
            ratios_ref = shared_miss_ratios_scalar(curves, float(cap))
            got = [float(x) for x in grid[:, ci]]
            if got != ratios_ref:
                failures.append(
                    f"trial {trial}: miss_ratios({cap!r}) = {got}, "
                    f"scalar oracle {ratios_ref}"
                )
    return failures


def _build_lab(args):
    from ..experiments.pipeline import Lab
    from ..perf.memo import SimMemo
    from ..perf.store import TraceStore

    memo = SimMemo(args.memo_dir) if args.memo_dir is not None else SimMemo()
    store = TraceStore(args.store_dir) if args.store_dir is not None else None
    return Lab(scale=args.scale, jobs=args.jobs, memo=memo, store=store)


def _run_fleet(args):
    from .simulator import run_fleet

    lab = _build_lab(args)
    programs = [p for p in args.programs.split(",") if p] if args.programs else None
    layouts = [name for name in args.layouts.split(",") if name]
    with lab:
        result = run_fleet(
            lab,
            n_instances=args.instances,
            n_sockets=args.sockets,
            layouts=layouts,
            programs=programs,
            seed=args.seed,
            capacity=args.capacity,
            matrix_capacities=args.matrix_capacities,
        )
    return lab, result


def _print_result(result) -> None:
    print(
        f"fleet: {result.n_instances} instances on {result.n_sockets} sockets, "
        f"capacity {result.capacity:.0f} lines, {len(result.models)} models"
    )
    print(
        f"pair matrix: {result.matrix_pairs} pairs x "
        f"{result.matrix_capacities} capacities = {result.matrix_cells} cells "
        f"from {result.curve_passes} curve passes "
        f"(+{result.curve_memo_hits} memo hits); mean co-run ratio "
        f"{result.mean_corun_ratio:.4f}, worst pair "
        f"{result.worst_pair[0]} + {result.worst_pair[1]}"
    )
    for name, placement in sorted(result.placements.items()):
        print(
            f"  {name:>12}: total misses {placement.total_misses:.3e}, "
            f"makespan {placement.makespan:.3e} cycles"
        )
    verdict = "beats" if result.gate else "DOES NOT beat"
    print(
        f"layout-aware {verdict} oblivious: "
        f"{result.aware_total:.3e} vs {result.oblivious_total:.3e} misses"
    )


def _cmd_run(args) -> int:
    _, result = _run_fleet(args)
    _print_result(result)
    return 0


def _cmd_bench(args) -> int:
    from ..perf.telemetry import Telemetry, merge_bench_section
    from ..robust.atomic import atomic_write_text

    failures = _parity_gate(args.seed, args.parity_trials)
    if failures:
        print("fleet composition parity FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(
        f"fleet composition parity OK: {args.parity_trials} random curve "
        f"sets, vectorized == scalar oracles bit for bit"
    )

    t0 = time.perf_counter()
    lab, result = _run_fleet(args)
    telemetry = Telemetry(jobs=args.jobs, scale=args.scale)
    telemetry.merge(lab.snapshot())
    telemetry.wall_s = time.perf_counter() - t0
    report = telemetry.to_dict()
    _print_result(result)

    # The gates read from the telemetry report itself — what CI archives
    # is what was asserted.
    fleet = report.get("fleet") or {}
    errors: list[str] = []
    cells = int(fleet.get("cells", 0))
    passes = int(fleet.get("curve_passes", 0))
    if cells < args.min_cells:
        errors.append(
            f"co-run matrix resolved {cells} cells, below required "
            f"{args.min_cells}"
        )
    if passes > args.max_curve_passes:
        errors.append(
            f"{passes} footprint-curve computations, above allowed "
            f"{args.max_curve_passes}"
        )
    if not result.gate:
        errors.append(
            f"layout-aware total misses {result.aware_total!r} do not beat "
            f"oblivious {result.oblivious_total!r}"
        )
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    print(
        f"fleet gate OK: {cells} cells from {passes} curve passes "
        f"({fleet.get('cells_per_curve', 0.0)} cells/curve), aware "
        f"{result.aware_total:.3e} < oblivious {result.oblivious_total:.3e}"
    )

    section = {
        "instances": result.n_instances,
        "sockets": result.n_sockets,
        "models": len(result.models),
        "matrix_cells": cells,
        "curve_passes": passes,
        "curve_memo_hits": int(fleet.get("curve_memo_hits", 0)),
        "cells_per_curve": fleet.get("cells_per_curve", 0.0),
        "aware_total_misses": result.aware_total,
        "oblivious_total_misses": result.oblivious_total,
        "aware_policy": result.best_aware.policy if result.best_aware else None,
        "oblivious_policy": (
            result.best_oblivious.policy if result.best_oblivious else None
        ),
        "seconds": round(result.seconds, 4),
    }
    if args.out is not None:
        report["fleet_bench"] = section
        atomic_write_text(args.out, json.dumps(report, indent=2, sort_keys=True))
        print(f"fleet bench report written to {args.out}")
    if args.bench is not None:
        merge_bench_section(args.bench, "fleet_bench", section)
        print(f"fleet_bench section merged into {args.bench}")
    return 0


def _add_fleet_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--programs",
        default=None,
        help="comma-separated suite programs (default: all 29 workload models)",
    )
    p.add_argument(
        "--layouts",
        default="baseline",
        help="comma-separated layout variants per program",
    )
    p.add_argument(
        "--instances", type=int, default=116, help="program instances to place"
    )
    p.add_argument(
        "--sockets", type=int, default=29, help="sockets / shared caches"
    )
    p.add_argument(
        "--scale", type=float, default=0.1, help="trace-budget multiplier"
    )
    p.add_argument("--jobs", type=int, default=1, help="curve fan-out workers")
    p.add_argument(
        "--capacity",
        type=float,
        default=None,
        help="shared-cache capacity in lines (default: the lab geometry)",
    )
    p.add_argument(
        "--matrix-capacities",
        type=int,
        default=128,
        help="capacity sweep points in the co-run pair matrix",
    )
    p.add_argument("--seed", type=int, default=0, help="random-policy seed")
    p.add_argument(
        "--memo-dir",
        default=None,
        metavar="DIR",
        help="persistent SimMemo directory (curves replay across runs)",
    )
    p.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="TraceStore directory (zero-copy curve fan-out)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.fleet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one fleet and print the comparison")
    _add_fleet_args(run_p)

    bench_p = sub.add_parser(
        "bench", help="fleet-bench gate: parity + reuse + aware-beats-oblivious"
    )
    _add_fleet_args(bench_p)
    bench_p.add_argument(
        "--parity-trials",
        type=int,
        default=25,
        help="random curve sets for the composition parity gate",
    )
    bench_p.add_argument(
        "--min-cells",
        type=int,
        default=100_000,
        help="fail unless the co-run matrix resolves at least this many cells",
    )
    bench_p.add_argument(
        "--max-curve-passes",
        type=int,
        default=29,
        help="fail if more fresh footprint-curve computations were needed",
    )
    bench_p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the full bench telemetry report (BENCH_fleet.json)",
    )
    bench_p.add_argument(
        "--bench",
        default=None,
        metavar="PATH",
        help="merge the fleet_bench section into this BENCH_perf.json",
    )

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
