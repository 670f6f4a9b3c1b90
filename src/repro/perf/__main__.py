"""``python -m repro.perf`` — perf tooling CLI.

Subcommands:

``compare-journals A B``
    Assert two run journals describe the same suite outcomes, ignoring
    timing fields (``elapsed_s``, ``finished_at``, ``timings``).  Exit 0
    on parity, 1 with a difference listing otherwise.  This is the
    parity gate of the CI benchmark smoke job: a ``--jobs N`` run must
    journal exactly what the serial run journals.

``show-bench PATH``
    Pretty-print the headline numbers of a ``BENCH_perf.json``.

``kernel-bench``
    Parity gate + speedup measurement for the stack-distance kernel
    across every registered backend tier (:mod:`repro.perf.backends`):
    builds a real fetch stream, runs the scalar *simulator* once per
    associativity of a geometry family (the reference), then runs one
    histogram pass per tier, asserts every tier's miss counts are
    **bit-identical** to the simulator and to each other (exit 1 on any
    divergence), and reports per-tier speedups.  Timings are the
    minimum over ``--reps`` repetitions.  ``--backend`` restricts the
    tier list; ``--min-speedup`` gates the fastest tier;
    ``--baseline PATH`` gates each tier's speedup against a committed
    ``BENCH_kernel.json`` (no-regression floor, ``--regression-factor``
    of the committed figure); ``--out PATH`` writes a standalone
    ``BENCH_kernel.json``; ``--bench PATH`` merges the numbers into a
    ``BENCH_perf.json`` under ``kernel_bench``.

``analysis-bench``
    Parity gate + speedup measurement for the locality-model analysis
    kernels (:mod:`repro.core.fastanalysis`): builds a real symbol
    trace, runs the scalar oracles (``AffinityAnalysis`` for the full
    ``2..w_max`` sweep and ``build_trg``), then runs each non-scalar
    backend tier's kernels, asserts every tier's artifacts are
    **bit-identical** to the oracles (exit 1 on any divergence), and
    reports per-tier analysis-stage speedups.  Timings are the minimum
    over ``--reps`` repetitions (single runs are noisy on shared
    machines).  ``--backend`` restricts the tier list;
    ``--min-speedup`` gates the fastest tier; ``--bench PATH`` merges
    the numbers under ``analysis_bench``; ``--out PATH`` writes a
    standalone ``BENCH_analysis.json``.

``store-bench``
    Transport gate for the zero-copy trace store
    (:mod:`repro.perf.store`): fans the L1I-family histogram cells of
    several programs across a ``--jobs`` worker pool twice — once
    shipping pickled arrays, once shipping :class:`~repro.perf.store.StoreRef`
    descriptors against a store — asserts the results are
    **bit-identical**, and reports per-cell bytes shipped both ways.
    ``--min-ratio`` turns the reduction into a gate (CI requires 10x);
    ``--bench PATH`` merges the numbers under ``store_bench``.

Both ``kernel-bench`` and ``analysis-bench`` accept ``--store-dir`` to
route their kernel-side inputs through the store's memmap reads, so the
existing parity gates double as zero-copy correctness gates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .telemetry import BENCH_SCHEMA, compare_journal_outcomes, merge_bench_section


def _load_journal(path: str) -> list[dict]:
    from ..robust.journal import RunJournal

    return [json.loads(e.to_json()) for e in RunJournal(path).entries()]


#: schema tag of the standalone kernel-bench report (``--out``); this is
#: the format of the committed ``BENCH_kernel.json`` baseline.
KERNEL_BENCH_SCHEMA = "repro.perf/kernel-bench.v1"


def _select_backends(spec, *, include_scalar: bool = True) -> list[str]:
    """Resolve a ``--backend`` spec to a validated tier-name list.

    ``None``/``"all"`` means every tier (the default first); an
    explicit comma-separated list must name known tiers.  Raises
    ValueError.
    """
    from .backends import available_backends, resolve_backend

    if spec in (None, "", "all"):
        names = list(available_backends())
        if not include_scalar:
            names = [n for n in names if n != "scalar"]
        return names
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        raise ValueError("--backend selects no tiers")
    for name in names:
        resolve_backend(name)  # unknown names raise
    return names


def _run_kernel_bench(args) -> int:
    import numpy as np

    from ..cache.config import CacheConfig
    from ..cache.setassoc import simulate
    from ..experiments.pipeline import BASELINE, Lab
    from ..robust.atomic import atomic_write_text
    from .backends import resolve_backend

    assocs = [int(a) for a in args.assocs.split(",")]
    reps = max(1, args.reps)
    try:
        names = _select_backends(args.backend)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lab = Lab(scale=args.scale)
    stream = lab.lines(args.program, BASELINE)
    n_sets = args.n_sets

    # Scalar reference: one full LRU pass per associativity (best of reps).
    scalar_misses: dict[int, int] = {}
    scalar_s = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for assoc in assocs:
            cfg = CacheConfig(
                size_bytes=n_sets * assoc * 64, assoc=assoc, line_bytes=64
            )
            scalar_misses[assoc] = simulate(stream, cfg).misses
        scalar_s = min(scalar_s, time.perf_counter() - t0)

    kernel_input = np.asarray(stream)
    if args.store_dir is not None:
        # Route the kernels' input through the store: publish once, read
        # back as a zero-copy memmap, so the parity assertions below also
        # certify the mmap transport path.
        from .store import TraceStore

        store = TraceStore(args.store_dir)
        kernel_input = store.resolve(store.ref(stream))

    # One histogram pass per tier answers the whole family.
    rows: dict[str, dict] = {}
    ref_hist = None
    mismatches: list[str] = []
    for name in names:
        backend = resolve_backend(name)
        best, hist = float("inf"), None
        for _ in range(reps):
            t0 = time.perf_counter()
            hist = backend.histogram(kernel_input, n_sets)
            best = min(best, time.perf_counter() - t0)
        for a in assocs:
            got = hist.misses(a)
            if got != scalar_misses[a]:
                mismatches.append(
                    f"{name}: assoc={a}: scalar {scalar_misses[a]} != {got}"
                )
        if ref_hist is None:
            ref_hist = hist
        elif hist != ref_hist:
            mismatches.append(f"{name}: histogram diverges from {names[0]} tier")
        rows[name] = {
            "seconds": round(best, 4),
            "speedup": round(scalar_s / best, 2) if best > 0 else float("inf"),
            "accesses_per_s": round(len(stream) / best, 1) if best > 0 else 0.0,
        }

    if mismatches:
        print("kernel parity FAILED:", file=sys.stderr)
        for m in mismatches:
            print(f"  {m}", file=sys.stderr)
        return 1

    fastest = min(rows, key=lambda n: rows[n]["seconds"])
    kernel_s = rows[fastest]["seconds"]
    speedup = rows[fastest]["speedup"]
    print(
        f"kernel parity OK: {args.program} ({len(stream)} lines), "
        f"n_sets={n_sets}, assoc sweep {assocs}, tiers {names}, "
        f"best of {reps} reps"
    )
    print(f"scalar simulator, {len(assocs)} passes: {scalar_s:.3f}s")
    for name in names:
        row = rows[name]
        print(
            f"  {name}: {row['seconds']:.4f}s ({row['speedup']:.1f}x, "
            f"{row['accesses_per_s']:.0f} accesses/s)"
        )

    failures: list[str] = []
    if args.min_speedup is not None and speedup < args.min_speedup:
        failures.append(
            f"fastest tier ({fastest}) speedup {speedup:.1f}x below "
            f"required {args.min_speedup:.1f}x"
        )
    if args.baseline is not None:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 1
        factor = args.regression_factor
        for name, row in rows.items():
            base = (baseline.get("backends") or {}).get(name)
            if not base:
                continue
            floor = factor * base["speedup"]
            if row["speedup"] < floor:
                failures.append(
                    f"{name} tier speedup {row['speedup']:.1f}x regressed "
                    f"below {floor:.1f}x ({factor:.2f} of the committed "
                    f"{base['speedup']:.1f}x)"
                )
    if failures:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return 1

    section = {
        "program": args.program,
        "stream_lines": int(len(stream)),
        "n_sets": n_sets,
        "assocs": assocs,
        "reps": reps,
        "scalar_seconds": round(scalar_s, 4),
        "backend": fastest,
        "backends": rows,
        "kernel_seconds": kernel_s,
        "speedup": speedup,
    }
    if args.bench is not None:
        merge_bench_section(args.bench, "kernel_bench", section)
        print(f"kernel_bench section written to {args.bench}")
    if args.out is not None:
        report = {"schema": KERNEL_BENCH_SCHEMA, "scale": args.scale, **section}
        atomic_write_text(args.out, json.dumps(report, indent=2, sort_keys=True))
        print(f"kernel-bench report written to {args.out}")
    return 0


#: schema tag of the standalone analysis-bench report (``--out``).
ANALYSIS_BENCH_SCHEMA = "repro.perf/analysis-bench.v1"


def _run_analysis_bench(args) -> int:
    import numpy as np

    from ..core.affinity import AffinityAnalysis
    from ..core.fastanalysis import coverage_from_analysis
    from ..core.layout import Granularity
    from ..core.optimizers import OptimizerConfig, _prepare_trace
    from ..core.trg import build_trg
    from ..experiments.pipeline import Lab
    from ..robust.atomic import atomic_write_text
    from .backends import resolve_backend

    try:
        # Scalar is the timed reference below; the tier loop covers the
        # faster numpy backend.
        names = _select_backends(args.backend, include_scalar=False)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lab = Lab(scale=args.scale)
    prepared = lab.program(args.program)
    config = OptimizerConfig()
    trace = _prepare_trace(
        prepared.test_bundle, Granularity(args.granularity), config
    )
    w_max = args.w_max
    window = args.window_blocks
    reps = max(1, args.reps)

    kernel_trace = trace
    if args.store_dir is not None:
        # Kernels read the trace back through the store's memmap, so the
        # bit-identity assertions below certify the zero-copy path too.
        from .store import TraceStore

        store = TraceStore(args.store_dir)
        kernel_trace = store.resolve(store.ref(trace))

    def timed(fn):
        """(best wall seconds over reps, last result)."""
        best, result = float("inf"), None
        for _ in range(reps):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        return best, result

    # Scalar oracles: one-pass LRU-stack sweep + scalar TRG window walk.
    scalar_aff_s, scalar_analysis = timed(lambda: AffinityAnalysis(trace, w_max))
    scalar_trg_s, scalar_trg = timed(lambda: build_trg(trace, window_blocks=window))
    scalar_covg = coverage_from_analysis(scalar_analysis)
    scalar_s = scalar_aff_s + scalar_trg_s

    rows: dict[str, dict] = {}
    mismatches: list[str] = []
    for name in names:
        backend = resolve_backend(name)
        aff_s, covg = timed(lambda: backend.affinity(kernel_trace, w_max=w_max))
        trg_s, trg = timed(lambda: backend.trg(kernel_trace, window))
        if scalar_covg != covg:
            mismatches.append(f"{name}: affinity coverage tables diverge")
        if scalar_trg != trg:
            mismatches.append(f"{name}: TRG nodes, edges or weights diverge")
        total = aff_s + trg_s
        rows[name] = {
            "affinity_seconds": round(aff_s, 4),
            "trg_seconds": round(trg_s, 4),
            "seconds": round(total, 4),
            "affinity_speedup": round(scalar_aff_s / aff_s, 2)
            if aff_s > 0
            else float("inf"),
            "trg_speedup": round(scalar_trg_s / trg_s, 2)
            if trg_s > 0
            else float("inf"),
            "speedup": round(scalar_s / total, 2) if total > 0 else float("inf"),
        }
    if mismatches:
        print("analysis parity FAILED:", file=sys.stderr)
        for m in mismatches:
            print(f"  {m}", file=sys.stderr)
        return 1

    fastest = min(rows, key=lambda n: rows[n]["seconds"])
    kernel_s = rows[fastest]["seconds"]
    speedup = rows[fastest]["speedup"]
    n_syms = int(np.unique(trace).size)
    print(
        f"analysis parity OK: {args.program} ({len(trace)} accesses, "
        f"{n_syms} symbols, granularity={args.granularity}), "
        f"w_max={w_max}, window={window} blocks, tiers {names}, "
        f"best of {reps} reps"
    )
    print(
        f"scalar oracles: affinity {scalar_aff_s:.3f}s + trg "
        f"{scalar_trg_s:.3f}s = {scalar_s:.3f}s"
    )
    for name in names:
        row = rows[name]
        print(
            f"  {name}: affinity {row['affinity_seconds']:.3f}s "
            f"({row['affinity_speedup']:.2f}x), trg {row['trg_seconds']:.3f}s "
            f"({row['trg_speedup']:.2f}x), stage {row['seconds']:.3f}s "
            f"({row['speedup']:.2f}x)"
        )

    failures: list[str] = []
    if args.min_speedup is not None and speedup < args.min_speedup:
        failures.append(
            f"fastest tier ({fastest}) speedup {speedup:.2f}x below "
            f"required {args.min_speedup:.1f}x"
        )
    if failures:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return 1

    best = rows[fastest]
    section = {
        "program": args.program,
        "granularity": args.granularity,
        "trace_accesses": int(len(trace)),
        "symbols": n_syms,
        "w_max": w_max,
        "window_blocks": window,
        "reps": reps,
        "scalar_seconds": round(scalar_s, 4),
        "backend": fastest,
        "backends": rows,
        "kernel_seconds": kernel_s,
        "affinity_speedup": best["affinity_speedup"],
        "trg_speedup": best["trg_speedup"],
        "speedup": speedup,
    }
    if args.bench is not None:
        merge_bench_section(args.bench, "analysis_bench", section)
        print(f"analysis_bench section written to {args.bench}")
    if args.out is not None:
        report = {"schema": ANALYSIS_BENCH_SCHEMA, "scale": args.scale, **section}
        atomic_write_text(args.out, json.dumps(report, indent=2, sort_keys=True))
        print(f"analysis-bench report written to {args.out}")
    return 0


def _run_store_bench(args) -> int:
    import tempfile

    from ..experiments.pipeline import BASELINE, Lab
    from .parallel import CellPool, memoized_cells
    from .store import TraceStore

    programs = [p for p in args.programs.split(",") if p]
    n_sets = args.n_sets
    lab = Lab(scale=args.scale)
    cells = [(lab.lines(p, BASELINE), n_sets) for p in programs]

    def run(store):
        """The production fan-out of the histogram cells: its results, the
        bytes it shipped to the workers, and its wall time."""
        counters = dict.fromkeys(
            ("store_bytes_shipped", "store_bytes_mapped", "pool_fanouts", "pool_reuses"),
            0,
        )
        t0 = time.perf_counter()
        with CellPool(args.jobs, store=store) as pool:
            hists, _ = memoized_cells(
                "histogram", cells, memo=None, store=store,
                pool=lambda: pool, counters=counters,
            )
        return hists, counters["store_bytes_shipped"], time.perf_counter() - t0

    # The pickled path: every cell carries its full stream.
    pickled_hists, pickled_bytes, pickled_s = run(None)
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(args.store_dir or tmp)
        ref_hists, ref_bytes, ref_s = run(store)

    mismatches = [
        programs[i]
        for i, (a, b) in enumerate(zip(pickled_hists, ref_hists))
        if a != b
    ]
    if mismatches:
        print(
            f"store transport parity FAILED: {', '.join(mismatches)}",
            file=sys.stderr,
        )
        return 1

    n = len(programs)
    ratio = pickled_bytes / ref_bytes if ref_bytes else float("inf")
    print(
        f"store transport parity OK: {n} histogram cells "
        f"(n_sets={n_sets}, jobs={args.jobs})"
    )
    print(
        f"bytes shipped per cell: pickled {pickled_bytes // n}, "
        f"store refs {ref_bytes // n} ({ratio:.1f}x smaller); "
        f"wall: pickled {pickled_s:.3f}s, store {ref_s:.3f}s"
    )
    if args.min_ratio is not None and ratio < args.min_ratio:
        print(
            f"error: shipped-bytes reduction {ratio:.1f}x below required "
            f"{args.min_ratio:.1f}x",
            file=sys.stderr,
        )
        return 1

    if args.bench is not None:
        section = {
            "programs": programs,
            "n_sets": n_sets,
            "jobs": args.jobs,
            "cells": n,
            "bytes_shipped_pickled": pickled_bytes,
            "bytes_shipped_refs": ref_bytes,
            "ratio": round(ratio, 1),
            "pickled_seconds": round(pickled_s, 4),
            "store_seconds": round(ref_s, 4),
            "store_counters": store.counters(),
        }
        merge_bench_section(args.bench, "store_bench", section)
        print(f"store_bench section written to {args.bench}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.perf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cmp_p = sub.add_parser(
        "compare-journals", help="assert two run journals agree modulo timings"
    )
    cmp_p.add_argument("journal_a")
    cmp_p.add_argument("journal_b")
    cmp_p.add_argument(
        "--ignore-attempts",
        action="store_true",
        help="tolerate differing attempt counts (chaos runs redispatch "
        "killed/hung work, inflating attempts without changing outcomes)",
    )

    show_p = sub.add_parser("show-bench", help="summarize a BENCH_perf.json")
    show_p.add_argument("bench_path")

    kb_p = sub.add_parser(
        "kernel-bench",
        help="stack-distance kernel parity gate + assoc-sweep speedup",
    )
    kb_p.add_argument("--program", default="syn-gcc", help="suite program")
    kb_p.add_argument(
        "--scale", type=float, default=0.5, help="trace-budget multiplier"
    )
    kb_p.add_argument(
        "--n-sets",
        type=int,
        default=128,
        help="geometry family (default: the paper L1I's 128 sets)",
    )
    kb_p.add_argument(
        "--assocs",
        default="1,2,4,8,16",
        help="comma-separated associativities for the sweep",
    )
    kb_p.add_argument(
        "--backend",
        default=None,
        metavar="TIERS",
        help="comma-separated kernel tiers to measure (numpy, scalar), "
        "or 'all'; default: both tiers",
    )
    kb_p.add_argument(
        "--reps",
        type=int,
        default=3,
        help="repetitions per timing (the best is reported)",
    )
    kb_p.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if the fastest tier's speedup falls below this",
    )
    kb_p.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="committed BENCH_kernel.json to gate against: each measured "
        "tier must reach --regression-factor of its committed speedup",
    )
    kb_p.add_argument(
        "--regression-factor",
        type=float,
        default=0.5,
        help="fraction of the baseline speedup each tier must reach "
        "(default 0.5 — catches collapses, tolerates CI timing noise)",
    )
    kb_p.add_argument(
        "--bench",
        default=None,
        metavar="PATH",
        help="merge results into this BENCH_perf.json",
    )
    kb_p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write a standalone BENCH_kernel.json report",
    )
    kb_p.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="route the kernel's input through a TraceStore memmap read "
        "(the parity gate then also certifies the zero-copy path)",
    )

    ab_p = sub.add_parser(
        "analysis-bench",
        help="locality-model kernel parity gate + analysis-stage speedup",
    )
    ab_p.add_argument("--program", default="syn-gcc", help="suite program")
    ab_p.add_argument(
        "--scale", type=float, default=0.5, help="trace-budget multiplier"
    )
    ab_p.add_argument(
        "--granularity",
        default="function",
        choices=["function", "bb"],
        help="symbol granularity of the analyzed trace",
    )
    ab_p.add_argument(
        "--w-max",
        type=int,
        default=20,
        help="affinity sweep upper bound (default: the paper's w_max)",
    )
    ab_p.add_argument(
        "--window-blocks",
        type=int,
        default=256,
        help="TRG reuse-window capacity in blocks",
    )
    ab_p.add_argument(
        "--reps",
        type=int,
        default=3,
        help="repetitions per timing (the best is reported)",
    )
    ab_p.add_argument(
        "--backend",
        default=None,
        metavar="TIERS",
        help="comma-separated kernel tiers to measure against the scalar "
        "oracles (numpy), or 'all'; default: every non-scalar tier",
    )
    ab_p.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if the fastest tier's combined speedup falls "
        "below this",
    )
    ab_p.add_argument(
        "--bench",
        default=None,
        metavar="PATH",
        help="merge results into this BENCH_perf.json",
    )
    ab_p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write a standalone BENCH_analysis.json report",
    )
    ab_p.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="route the kernels' input trace through a TraceStore memmap "
        "read (the parity gate then also certifies the zero-copy path)",
    )

    sb_p = sub.add_parser(
        "store-bench",
        help="zero-copy transport gate: shipped bytes, pickled vs store refs",
    )
    sb_p.add_argument(
        "--programs",
        default="syn-gcc,syn-gobmk,syn-perlbench,syn-sjeng",
        help="comma-separated suite programs (one histogram cell each)",
    )
    sb_p.add_argument(
        "--scale", type=float, default=0.25, help="trace-budget multiplier"
    )
    sb_p.add_argument(
        "--n-sets",
        type=int,
        default=128,
        help="geometry family (default: the paper L1I's 128 sets)",
    )
    sb_p.add_argument(
        "--jobs", type=int, default=4, help="cell-pool worker processes"
    )
    sb_p.add_argument(
        "--min-ratio",
        type=float,
        default=None,
        help="fail (exit 1) if per-cell shipped bytes shrink by less than this",
    )
    sb_p.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="trace-store directory (default: a temporary one)",
    )
    sb_p.add_argument(
        "--bench",
        default=None,
        metavar="PATH",
        help="merge results into this BENCH_perf.json",
    )

    args = parser.parse_args(argv)

    if args.command == "compare-journals":
        ignore = ("attempts",) if args.ignore_attempts else ()
        diffs = compare_journal_outcomes(
            _load_journal(args.journal_a),
            _load_journal(args.journal_b),
            ignore=ignore,
        )
        if diffs:
            print(f"journals differ ({args.journal_a} vs {args.journal_b}):")
            for d in diffs:
                print(f"  {d}")
            return 1
        print("journals agree (modulo timing fields)")
        return 0

    if args.command == "show-bench":
        with open(args.bench_path) as fh:
            bench = json.load(fh)
        if bench.get("schema") != BENCH_SCHEMA:
            print(f"error: not a {BENCH_SCHEMA} report", file=sys.stderr)
            return 2
        sim = bench.get("simulator", {})
        kernel = bench.get("kernel") or {}
        kernel_bench = bench.get("kernel_bench") or {}
        analysis = bench.get("analysis") or {}
        analysis_bench = bench.get("analysis_bench") or {}
        memo = bench.get("memo") or {}
        print(
            f"jobs={bench.get('jobs', '?')} scale={bench.get('scale', '?')} "
            f"wall={bench.get('wall_s', '?')}s"
        )
        print(
            f"simulator: {sim.get('accesses', 0)} accesses in "
            f"{sim.get('seconds', 0)}s ({sim.get('accesses_per_s', 0)}/s)"
        )
        if kernel.get("accesses"):
            if kernel.get("backend"):
                print(f"kernel backend: {kernel['backend']}")
            print(
                f"kernel: {kernel.get('accesses', 0)} accesses in "
                f"{kernel.get('seconds', 0)}s ({kernel.get('accesses_per_s', 0)}/s), "
                f"{kernel.get('passes', 0)} passes answering "
                f"{kernel.get('cells', 0)} cells "
                f"({kernel.get('cells_per_pass', 0.0)} cells/pass)"
            )
        if kernel_bench:
            print(
                f"kernel-bench: {kernel_bench.get('speedup', 0)}x over "
                f"{len(kernel_bench.get('assocs', []))} scalar passes "
                f"(n_sets={kernel_bench.get('n_sets', '?')}, "
                f"program={kernel_bench.get('program', '?')})"
            )
            for name, row in sorted(
                (kernel_bench.get("backends") or {}).items()
            ):
                print(
                    f"  {name}: {row.get('seconds', 0)}s "
                    f"({row.get('speedup', 0)}x, "
                    f"{row.get('accesses_per_s', 0)} accesses/s)"
                )
        if analysis.get("cells"):
            print(
                f"analysis: {analysis.get('accesses', 0)} accesses in "
                f"{analysis.get('seconds', 0)}s "
                f"({analysis.get('accesses_per_s', 0)}/s), "
                f"{analysis.get('passes', 0)} passes for "
                f"{analysis.get('cells', 0)} cells, "
                f"{analysis.get('memo_hits', 0)} memo hits"
            )
        if analysis_bench:
            print(
                f"analysis-bench: {analysis_bench.get('speedup', 0)}x "
                f"(affinity {analysis_bench.get('affinity_speedup', 0)}x, "
                f"trg {analysis_bench.get('trg_speedup', 0)}x, "
                f"program={analysis_bench.get('program', '?')})"
            )
            for name, row in sorted(
                (analysis_bench.get("backends") or {}).items()
            ):
                print(
                    f"  {name}: {row.get('seconds', 0)}s "
                    f"({row.get('speedup', 0)}x; affinity "
                    f"{row.get('affinity_speedup', 0)}x, "
                    f"trg {row.get('trg_speedup', 0)}x)"
                )
        # The suite's counters and the certify gate's section share a line.
        for key in ("staticlint", "staticlint_bench"):
            section = bench.get(key) or {}
            if section.get("diagnostics") or section.get("certified"):
                print(
                    f"{key.replace('_', '-')}: "
                    f"{section.get('diagnostics', 0)} diagnostics in "
                    f"{section.get('seconds', 0)}s "
                    f"({section.get('diagnostics_per_s', 0)}/s), "
                    f"{section.get('certified', 0)} program(s) certified"
                    + ("" if section.get("ok", True) else ", FAILED")
                )
            for row in section.get("certify", []):
                print(
                    f"  certify {row.get('program', '?')}/{row.get('layout', '?')}: "
                    f"conflict_rho={row.get('conflict_rho', '?')} "
                    f"hotness_rho={row.get('hotness_rho', '?')}"
                )
        if memo:
            print(
                f"memo: {memo.get('hits', 0)} hits / {memo.get('misses', 0)} misses "
                f"(hit rate {memo.get('hit_rate', 0.0)})"
            )
            if memo.get("disk_failures") or memo.get("breaker_trips"):
                print(
                    f"  disk tier: {memo.get('disk_failures', 0)} failures, "
                    f"{memo.get('degraded', 0)} degraded ops, breaker "
                    f"{memo.get('breaker_trips', 0)} trip(s) / "
                    f"{memo.get('breaker_recoveries', 0)} recover(ies)"
                )
        store = bench.get("store") or {}
        if store:
            print(
                f"store: {store.get('bytes_shipped', 0)} bytes shipped / "
                f"{store.get('bytes_mapped', 0)} bytes mapped, "
                f"{store.get('pool_fanouts', 0)} fan-outs "
                f"({store.get('pool_reuses', 0)} pool reuses)"
            )
            backend = store.get("backend") or {}
            if backend:
                print(
                    f"  backend: {backend.get('puts', 0)} puts "
                    f"({backend.get('dup_puts', 0)} deduped), "
                    f"{backend.get('hits', 0)} hits / "
                    f"{backend.get('misses', 0)} misses, "
                    f"{backend.get('bytes_written', 0)} bytes written, "
                    f"{backend.get('corrupt_dropped', 0)} corrupt dropped"
                )
        store_bench = bench.get("store_bench") or {}
        if store_bench:
            print(
                f"store-bench: {store_bench.get('ratio', 0)}x smaller dispatches "
                f"({store_bench.get('bytes_shipped_pickled', 0)} pickled bytes -> "
                f"{store_bench.get('bytes_shipped_refs', 0)} ref bytes over "
                f"{store_bench.get('cells', 0)} cells, "
                f"jobs={store_bench.get('jobs', '?')})"
            )
        fleet = bench.get("fleet") or {}
        if fleet:
            print(
                f"fleet: {fleet.get('cells', 0)} co-run cells in "
                f"{fleet.get('seconds', 0)}s ({fleet.get('cells_per_s', 0)}/s) "
                f"from {fleet.get('curve_passes', 0)} curve passes + "
                f"{fleet.get('curve_memo_hits', 0)} memo hits "
                f"({fleet.get('cells_per_curve', 0.0)} cells/curve)"
            )
        fleet_bench = bench.get("fleet_bench") or {}
        if fleet_bench:
            print(
                f"fleet-bench: aware {fleet_bench.get('aware_total_misses', 0):.3e} "
                f"vs oblivious {fleet_bench.get('oblivious_total_misses', 0):.3e} "
                f"misses ({fleet_bench.get('aware_policy', '?')} vs "
                f"{fleet_bench.get('oblivious_policy', '?')}, "
                f"{fleet_bench.get('instances', 0)} instances on "
                f"{fleet_bench.get('sockets', 0)} sockets, "
                f"{fleet_bench.get('matrix_cells', 0)} matrix cells)"
            )
        resilience = bench.get("resilience") or {}
        if resilience:
            print(
                f"resilience: {resilience.get('workers_spawned', 0)} workers "
                f"({resilience.get('workers_replaced', 0)} replaced), "
                f"{resilience.get('worker_crashes', 0)} crash(es), "
                f"{resilience.get('worker_hangs', 0)} hang(s), "
                f"{resilience.get('redispatches', 0)} redispatch(es)"
                + (", PARTIAL RESULTS" if resilience.get("partial") else "")
            )
        for stage, seconds in sorted(bench.get("stages", {}).items()):
            print(f"  {stage}: {seconds}s")
        return 0

    if args.command == "kernel-bench":
        return _run_kernel_bench(args)

    if args.command == "analysis-bench":
        return _run_analysis_bench(args)

    if args.command == "store-bench":
        return _run_store_bench(args)

    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
