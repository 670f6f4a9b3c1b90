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
    builds syn-gcc's baseline fetch stream, runs the scalar *simulator*
    once per associativity of the paper L1I's 128-set family (the
    reference), then runs one histogram pass per tier, asserts every
    tier's miss counts are **bit-identical** to the simulator and to
    each other (exit 1 on any divergence), and reports per-tier
    speedups.  Timings are the minimum over ``--reps`` repetitions.
    ``--min-speedup`` gates the fastest tier; ``--baseline PATH`` gates
    each tier's speedup against a committed ``BENCH_kernel.json``
    (no-regression floor, :data:`REGRESSION_FACTOR` of the committed
    figure); ``--out PATH`` writes a standalone ``BENCH_kernel.json``;
    ``--bench PATH`` merges the numbers into a ``BENCH_perf.json`` under
    ``kernel_bench``.

``analysis-bench``
    Parity gate + speedup measurement for the locality-model analysis
    kernels (:mod:`repro.core.fastanalysis`): builds syn-gcc's
    function-granularity symbol trace, runs the scalar oracles
    (``AffinityAnalysis`` for the full ``2..w_max`` sweep and
    ``build_trg``), then runs every non-scalar backend tier's kernels,
    asserts every tier's artifacts are **bit-identical** to the oracles
    (exit 1 on any divergence), and reports per-tier analysis-stage
    speedups.  Timings are the minimum over ``--reps`` repetitions
    (single runs are noisy on shared machines).  ``--min-speedup``
    gates the fastest tier; ``--bench PATH`` merges the numbers under
    ``analysis_bench``; ``--out PATH`` writes a standalone
    ``BENCH_analysis.json``.

``store-bench``
    Transport gate for the zero-copy trace store
    (:mod:`repro.perf.store`): fans the L1I-family histogram cells of
    four programs across a ``--jobs`` worker pool twice — once
    shipping pickled arrays, once shipping :class:`~repro.perf.store.StoreRef`
    descriptors against a temporary store — asserts the results are
    **bit-identical**, and reports per-cell bytes shipped both ways.
    ``--min-ratio`` turns the reduction into a gate (CI requires 10x);
    ``--bench PATH`` merges the numbers under ``store_bench``.

Both ``kernel-bench`` and ``analysis-bench`` accept ``--store-dir`` to
route their kernel-side inputs through the store's memmap reads, so the
existing parity gates double as zero-copy correctness gates.  What the
gates measure is fixed by the module constants below, the values the
committed ``BENCH_kernel.json`` and ``BENCH_analysis.json`` were
recorded at.
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


#: the program every gate measures (store-bench adds three more).
BENCH_PROGRAM = "syn-gcc"
#: the geometry family of kernel-bench and store-bench: the paper L1I's sets.
N_SETS = 128
#: the associativities kernel-bench's one histogram pass answers.
KERNEL_ASSOCS = [1, 2, 4, 8, 16]
#: under ``--baseline``, each tier must reach this fraction of its
#: committed speedup (catches collapses, tolerates CI timing noise).
REGRESSION_FACTOR = 0.5
#: analysis-bench's symbol granularity, affinity sweep bound (the
#: paper's w_max) and TRG reuse window in blocks.
ANALYSIS_GRANULARITY = "function"
ANALYSIS_W_MAX = 20
ANALYSIS_WINDOW_BLOCKS = 256
#: store-bench's programs (one histogram cell each) and trace scale.
STORE_PROGRAMS = [BENCH_PROGRAM, "syn-gobmk", "syn-perlbench", "syn-sjeng"]
STORE_SCALE = 0.25


def _timed(fn, reps: int):
    """(best wall seconds over ``reps`` calls, the last result)."""
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _finish_tier_gate(
    args,
    gate: str,
    rows: dict[str, dict],
    mismatches: list[str],
    report: list[str],
    section: dict,
    failures: tuple[str, ...] = (),
) -> int:
    """The shared end of kernel-bench and analysis-bench.

    A tier whose output diverged fails the gate (exit 1) before any
    timing counts.  Otherwise ``report`` is printed, and the fastest
    tier's speedup must reach ``--min-speedup``; it and ``failures``
    (kernel-bench's baseline floors) exit 1 too.  A passing gate adds
    the fastest tier's numbers to ``section``, merges it under
    ``{gate}_bench`` of ``--bench`` and writes it standalone, tagged
    ``repro.perf/{gate}-bench.v1``, to ``--out``.
    """
    from ..robust.atomic import atomic_write_text

    if mismatches:
        print(f"{gate} parity FAILED:", file=sys.stderr)
        for m in mismatches:
            print(f"  {m}", file=sys.stderr)
        return 1
    print("\n".join(report))
    fastest = min(rows, key=lambda n: rows[n]["seconds"])
    best = rows[fastest]
    floor = args.min_speedup
    if floor is not None and best["speedup"] < floor:
        failures = (
            f"fastest tier ({fastest}) speedup {best['speedup']:.2f}x below "
            f"required {floor:.1f}x",
            *failures,
        )
    for f in failures:
        print(f"error: {f}", file=sys.stderr)
    if failures:
        return 1

    section = {
        **section,
        "backend": fastest,
        "backends": rows,
        "kernel_seconds": best["seconds"],
        # "speedup", and analysis-bench's per-kernel speedups.
        **{k: v for k, v in best.items() if k.endswith("speedup")},
    }
    if args.bench is not None:
        merge_bench_section(args.bench, f"{gate}_bench", section)
        print(f"{gate}_bench section written to {args.bench}")
    if args.out is not None:
        out = {"schema": f"repro.perf/{gate}-bench.v1", "scale": args.scale, **section}
        atomic_write_text(args.out, json.dumps(out, indent=2, sort_keys=True))
        print(f"{gate}-bench report written to {args.out}")
    return 0


def _baseline_failures(path: str, rows: dict[str, dict]) -> tuple[str, ...]:
    """The tiers whose speedup fell below :data:`REGRESSION_FACTOR` of
    the committed report at ``path`` (a tier it lacks is not gated).
    Raises ``OSError``/``ValueError`` when the report cannot be read."""
    with open(path) as fh:
        committed = json.load(fh).get("backends") or {}
    failures = []
    for name, row in rows.items():
        base = committed.get(name)
        if not base:
            continue
        floor = REGRESSION_FACTOR * base["speedup"]
        if row["speedup"] < floor:
            failures.append(
                f"{name} tier speedup {row['speedup']:.1f}x regressed "
                f"below {floor:.1f}x ({REGRESSION_FACTOR:.2f} of the committed "
                f"{base['speedup']:.1f}x)"
            )
    return tuple(failures)


def _store_input(args, array):
    """``array``, or with ``--store-dir`` the same array published to the
    store and read back as a zero-copy memmap, so the gate's parity
    assertions also certify the mmap transport path."""
    if args.store_dir is None:
        return array
    from .store import TraceStore

    store = TraceStore(args.store_dir)
    return store.resolve(store.ref(array))


def _run_kernel_bench(args) -> int:
    import numpy as np

    from ..cache.config import CacheConfig
    from ..cache.setassoc import simulate
    from ..experiments.pipeline import BASELINE, Lab
    from .backends import TIERS, resolve_backend

    reps = max(1, args.reps)
    stream = Lab(scale=args.scale).lines(BENCH_PROGRAM, BASELINE)

    def scalar_passes() -> dict[int, int]:
        """The reference: one full LRU simulation per associativity."""
        return {
            assoc: simulate(
                stream,
                CacheConfig(size_bytes=N_SETS * assoc * 64, assoc=assoc, line_bytes=64),
            ).misses
            for assoc in KERNEL_ASSOCS
        }

    scalar_s, scalar_misses = _timed(scalar_passes, reps)
    kernel_input = _store_input(args, np.asarray(stream))

    # One histogram pass per tier answers the whole family.
    rows: dict[str, dict] = {}
    ref_hist = None
    mismatches: list[str] = []
    for name in TIERS:
        histogram = resolve_backend(name).histogram
        best, hist = _timed(lambda: histogram(kernel_input, N_SETS), reps)
        for a in KERNEL_ASSOCS:
            got = hist.misses(a)
            if got != scalar_misses[a]:
                mismatches.append(
                    f"{name}: assoc={a}: scalar {scalar_misses[a]} != {got}"
                )
        if ref_hist is None:
            ref_hist = hist
        elif hist != ref_hist:
            mismatches.append(f"{name}: histogram diverges from {TIERS[0]} tier")
        rows[name] = {
            "seconds": round(best, 4),
            "speedup": round(scalar_s / best, 2) if best > 0 else float("inf"),
            "accesses_per_s": round(len(stream) / best, 1) if best > 0 else 0.0,
        }

    failures: tuple[str, ...] = ()
    if args.baseline is not None and not mismatches:
        try:
            failures = _baseline_failures(args.baseline, rows)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 1
    report = [
        f"kernel parity OK: {BENCH_PROGRAM} ({len(stream)} lines), "
        f"n_sets={N_SETS}, assoc sweep {KERNEL_ASSOCS}, tiers {list(TIERS)}, "
        f"best of {reps} reps",
        f"scalar simulator, {len(KERNEL_ASSOCS)} passes: {scalar_s:.3f}s",
    ]
    report += [
        f"  {name}: {row['seconds']:.4f}s ({row['speedup']:.1f}x, "
        f"{row['accesses_per_s']:.0f} accesses/s)"
        for name, row in rows.items()
    ]
    section = {
        "program": BENCH_PROGRAM,
        "stream_lines": int(len(stream)),
        "n_sets": N_SETS,
        "assocs": KERNEL_ASSOCS,
        "reps": reps,
        "scalar_seconds": round(scalar_s, 4),
    }
    return _finish_tier_gate(
        args, "kernel", rows, mismatches, report, section, failures
    )


def _run_analysis_bench(args) -> int:
    import numpy as np

    from ..core.affinity import AffinityAnalysis
    from ..core.fastanalysis import coverage_from_analysis
    from ..core.layout import Granularity
    from ..core.optimizers import OptimizerConfig, _prepare_trace
    from ..core.trg import build_trg
    from ..experiments.pipeline import Lab
    from .backends import TIERS, resolve_backend

    # Scalar is the timed reference below; the tier loop covers the rest.
    names = [name for name in TIERS if name != "scalar"]
    reps = max(1, args.reps)
    prepared = Lab(scale=args.scale).program(BENCH_PROGRAM)
    trace = _prepare_trace(
        prepared.test_bundle, Granularity(ANALYSIS_GRANULARITY), OptimizerConfig()
    )
    w_max, window = ANALYSIS_W_MAX, ANALYSIS_WINDOW_BLOCKS
    kernel_trace = _store_input(args, trace)

    # Scalar oracles: one-pass LRU-stack sweep + scalar TRG window walk.
    scalar_aff_s, scalar_analysis = _timed(lambda: AffinityAnalysis(trace, w_max), reps)
    scalar_trg_s, scalar_trg = _timed(
        lambda: build_trg(trace, window_blocks=window), reps
    )
    scalar_covg = coverage_from_analysis(scalar_analysis)
    scalar_s = scalar_aff_s + scalar_trg_s

    rows: dict[str, dict] = {}
    mismatches: list[str] = []
    for name in names:
        backend = resolve_backend(name)
        aff_s, covg = _timed(lambda: backend.affinity(kernel_trace, w_max=w_max), reps)
        trg_s, trg = _timed(lambda: backend.trg(kernel_trace, window), reps)
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

    n_syms = int(np.unique(trace).size)
    report = [
        f"analysis parity OK: {BENCH_PROGRAM} ({len(trace)} accesses, "
        f"{n_syms} symbols, granularity={ANALYSIS_GRANULARITY}), "
        f"w_max={w_max}, window={window} blocks, tiers {names}, "
        f"best of {reps} reps",
        f"scalar oracles: affinity {scalar_aff_s:.3f}s + trg "
        f"{scalar_trg_s:.3f}s = {scalar_s:.3f}s",
    ]
    report += [
        f"  {name}: affinity {row['affinity_seconds']:.3f}s "
        f"({row['affinity_speedup']:.2f}x), trg {row['trg_seconds']:.3f}s "
        f"({row['trg_speedup']:.2f}x), stage {row['seconds']:.3f}s "
        f"({row['speedup']:.2f}x)"
        for name, row in rows.items()
    ]
    section = {
        "program": BENCH_PROGRAM,
        "granularity": ANALYSIS_GRANULARITY,
        "trace_accesses": int(len(trace)),
        "symbols": n_syms,
        "w_max": w_max,
        "window_blocks": window,
        "reps": reps,
        "scalar_seconds": round(scalar_s, 4),
    }
    return _finish_tier_gate(args, "analysis", rows, mismatches, report, section)


def _run_store_bench(args) -> int:
    import tempfile

    from ..experiments.pipeline import BASELINE, Lab
    from .parallel import CellPool, memoized_cells
    from .store import TraceStore

    if args.jobs < 2:
        # A map that stays in this process ships nothing to measure.
        print("error: store-bench needs --jobs >= 2", file=sys.stderr)
        return 2
    lab = Lab(scale=STORE_SCALE)
    cells = [(lab.lines(p, BASELINE), N_SETS) for p in STORE_PROGRAMS]

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
        store = TraceStore(tmp)
        ref_hists, ref_bytes, ref_s = run(store)

    mismatches = [
        STORE_PROGRAMS[i]
        for i, (a, b) in enumerate(zip(pickled_hists, ref_hists))
        if a != b
    ]
    if mismatches:
        print(
            f"store transport parity FAILED: {', '.join(mismatches)}",
            file=sys.stderr,
        )
        return 1

    n = len(STORE_PROGRAMS)
    ratio = pickled_bytes / ref_bytes if ref_bytes else float("inf")
    print(
        f"store transport parity OK: {n} histogram cells "
        f"(n_sets={N_SETS}, jobs={args.jobs})"
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
            "programs": STORE_PROGRAMS,
            "n_sets": N_SETS,
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
    ab_p = sub.add_parser(
        "analysis-bench",
        help="locality-model kernel parity gate + analysis-stage speedup",
    )
    for tier_p in (kb_p, ab_p):
        tier_p.add_argument(
            "--scale", type=float, default=0.5, help="trace-budget multiplier"
        )
        tier_p.add_argument(
            "--reps",
            type=int,
            default=3,
            help="repetitions per timing (the best is reported)",
        )
        tier_p.add_argument(
            "--min-speedup",
            type=float,
            default=None,
            help="fail (exit 1) if the fastest tier's speedup falls below this",
        )
        tier_p.add_argument(
            "--bench",
            default=None,
            metavar="PATH",
            help="merge results into this BENCH_perf.json",
        )
        tier_p.add_argument(
            "--out",
            default=None,
            metavar="PATH",
            help="write a standalone report (BENCH_kernel.json or "
            "BENCH_analysis.json)",
        )
        tier_p.add_argument(
            "--store-dir",
            default=None,
            metavar="DIR",
            help="route the kernels' input through a TraceStore memmap read "
            "(the parity gate then also certifies the zero-copy path)",
        )
    kb_p.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="committed BENCH_kernel.json to gate against: each tier must "
        f"reach {REGRESSION_FACTOR} of its committed speedup",
    )

    sb_p = sub.add_parser(
        "store-bench",
        help="zero-copy transport gate: shipped bytes, pickled vs store refs",
    )
    sb_p.add_argument(
        "--jobs", type=int, default=4, help="cell-pool worker processes (>= 2)"
    )
    sb_p.add_argument(
        "--min-ratio",
        type=float,
        default=None,
        help="fail (exit 1) if per-cell shipped bytes shrink by less than this",
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
