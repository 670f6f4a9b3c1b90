"""The compilation driver: one call from program to optimized layouts.

Mirrors the paper's system organization (Sec. II-F): "the overall system
has two main modules: locality modeling and program transformation.  For a
source program, the modeling step instruments the program and runs it
using the test data input set.  Then it gives the reordered sequence to
program transformation.  ...  The output is four optimized binaries."

:class:`Driver` runs exactly that pipeline over our substrate:

1. **instrument** — execute the test input, collect the trace bundle;
2. **model + transform** — run the requested optimizers (default: the
   paper's four) to produce layouts;
3. **evaluate** (optional) — execute the ref input and simulate each
   layout in the target cache;
4. **persist** (optional) — write the trace, layouts, and report into a
   build directory (:mod:`repro.compiler.artifacts`).

The CLI (``python -m repro.compiler``) exposes the same flow for suite
programs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from ..cache.config import PAPER_L1I, CacheConfig
from ..core.optimizers import COMPARATORS, OPTIMIZERS, OptimizerConfig
from ..engine.fetch import fetch_lines
from ..engine.instrument import TraceBundle, collect_trace, save_bundle
from ..engine.state import InputSpec
from ..ir.module import Module
from ..ir.transforms import LayoutResult, baseline_layout
from ..lint.diagnostics import LintReport
from ..lint.rules import LintConfig, run_lint
from ..robust.errors import ArtifactError, ProfileError, error_context
from ..staticlint.profile import synthesize_bundle
from ..staticlint.rulepack import StaticLintConfig, run_static_lint
from .artifacts import save_layout, save_report

__all__ = ["BuildResult", "Driver"]


@dataclass
class BuildResult:
    """Everything a compilation run produced."""

    program: str
    profile: TraceBundle
    layouts: dict[str, LayoutResult]
    #: per-layout evaluation: miss ratio per instruction (None if skipped).
    miss_ratios: dict[str, float] = field(default_factory=dict)
    #: per-layout static analysis (populated by ``build(..., lint=True)``).
    lint_reports: dict[str, LintReport] = field(default_factory=dict)
    #: per-layout profile-free analysis (``build(..., static_lint=True)``).
    static_lint_reports: dict[str, LintReport] = field(default_factory=dict)
    #: per-stage wall-clock seconds.
    timings: dict[str, float] = field(default_factory=dict)
    #: build directory, when persisted.
    build_dir: Optional[Path] = None

    def best_layout(self) -> str:
        """Name of the layout with the lowest evaluated miss ratio."""
        if not self.miss_ratios:
            raise ValueError("build was not evaluated")
        return min(self.miss_ratios, key=self.miss_ratios.__getitem__)

    def report(self) -> dict:
        out = {
            "program": self.program,
            "layouts": {
                name: {
                    "kind": layout.kind.value,
                    "note": layout.note,
                    "added_jumps": layout.added_jumps,
                    "total_bytes": layout.total_bytes,
                    "miss_ratio": self.miss_ratios.get(name),
                }
                for name, layout in self.layouts.items()
            },
            "timings": self.timings,
        }
        if self.lint_reports:
            out["lint"] = {
                name: report.to_dict() for name, report in self.lint_reports.items()
            }
        if self.static_lint_reports:
            out["static_lint"] = {
                name: report.to_dict()
                for name, report in self.static_lint_reports.items()
            }
        return out


class Driver:
    """Configurable instrument/optimize/evaluate pipeline."""

    def __init__(
        self,
        optimizer_config: Optional[OptimizerConfig] = None,
        cache: CacheConfig = PAPER_L1I,
        optimizers: Optional[Sequence[str]] = None,
        *,
        jobs: int = 1,
        memo=None,
        store=None,
        profile_source: str = "trace",
    ):
        """``jobs`` fans the per-layout evaluation simulations out across
        worker processes; ``memo`` (a :class:`repro.perf.memo.SimMemo`)
        replays identical simulations from the content-addressed cache;
        ``store`` (a :class:`repro.perf.store.TraceStore`) ships the
        evaluation streams to workers as zero-copy memmap refs instead of
        pickled arrays.  All of them only trade wall-clock time — never
        results.

        ``profile_source`` selects where the optimization profile comes
        from: ``"trace"`` (the paper's pipeline — instrument and run the
        test input) or ``"static"`` (no execution at all — the synthetic
        bundle of :func:`repro.staticlint.profile.synthesize_bundle`,
        walked from CFG branch heuristics).  The evaluation stage always
        measures against the real ref-input trace, so the two sources
        are directly comparable."""
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if profile_source not in ("trace", "static"):
            raise ValueError(
                f"profile_source must be 'trace' or 'static', got {profile_source!r}"
            )
        self.optimizer_config = optimizer_config or OptimizerConfig(cache=cache)
        self.cache = cache
        self.jobs = jobs
        self.memo = memo
        self.store = store
        self._cell_pool = None
        #: cell transport counters, as in ``Lab.counters``.
        self.counters: dict[str, float] = {
            "store_bytes_shipped": 0,
            "store_bytes_mapped": 0,
            "pool_fanouts": 0,
            "pool_reuses": 0,
        }
        self.profile_source = profile_source
        self.optimizer_names = list(optimizers or OPTIMIZERS)
        for name in self.optimizer_names:
            if name not in OPTIMIZERS and name not in COMPARATORS:
                raise ValueError(f"unknown optimizer {name!r}")

    def _optimizer(self, name: str):
        return OPTIMIZERS.get(name) or COMPARATORS[name]

    def cell_pool(self):
        """The driver's persistent cell pool (lazy, reused across builds)."""
        from ..perf.parallel import CellPool

        if self._cell_pool is None:
            self._cell_pool = CellPool(
                self.jobs,
                store=self.store,
                kernel_backend=self.optimizer_config.kernel_backend,
            )
        return self._cell_pool

    def close(self) -> None:
        """Release the persistent cell pool (idempotent)."""
        if self._cell_pool is not None:
            self._cell_pool.shutdown()
            self._cell_pool = None

    def __enter__(self) -> "Driver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _evaluate(self, streams: list):
        """Simulate the layouts' fetch streams (memoized, possibly parallel).

        The per-layout cells are independent, so with ``jobs > 1`` they
        fan out across the driver's persistent cell pool; memo hits are
        resolved first and fresh results are stored back, all yielding
        stats bit-identical to serial un-memoized simulation.  With a
        trace store attached, streams ship as zero-copy refs keyed by
        the same content digest the memo key consumed.  This is the
        Lab's fan-out path too (:func:`repro.perf.parallel.memoized_cells`).
        """
        from ..perf.parallel import memoized_cells

        stats, _ = memoized_cells(
            "stats",
            [(stream, self.cache, False) for stream in streams],
            memo=self.memo,
            store=self.store,
            pool=self.cell_pool,
            counters=self.counters,
        )
        return stats

    def build(
        self,
        module: Module,
        test_input: InputSpec,
        ref_input: Optional[InputSpec] = None,
        build_dir: Optional[str | Path] = None,
        *,
        lint: bool = False,
        lint_config: Optional[LintConfig] = None,
        static_lint: bool = False,
        static_lint_config: Optional[StaticLintConfig] = None,
    ) -> BuildResult:
        """Run the pipeline on ``module``.

        ``ref_input`` enables the evaluation stage; ``build_dir`` persists
        all artifacts.  ``lint=True`` adds a post-layout verification stage:
        every produced layout is statically analyzed against the test-input
        profile and the per-layout :class:`~repro.lint.diagnostics.LintReport`
        is recorded in :attr:`BuildResult.lint_reports` (and in
        :meth:`BuildResult.report`).  ``static_lint=True`` adds the
        profile-free S-pack (:mod:`repro.staticlint`) over the same
        layouts into :attr:`BuildResult.static_lint_reports` — usable
        even when the build itself is trace-driven, so the two packs can
        be diffed report-for-report.

        Every stage failure surfaces as a typed
        :class:`~repro.robust.errors.ReproError`: a module/input that
        breaks instrumentation raises ``ProfileError`` (stage
        ``instrument``), optimizer and evaluation blow-ups raise
        ``SimulationError`` naming the stage and layout, and persistence
        problems raise ``ArtifactError`` — never a raw ``KeyError`` /
        ``IndexError`` from the pipeline internals.
        """
        timings: dict[str, float] = {}
        program = module.name

        start = time.perf_counter()
        with error_context(
            "instrument", program=program, reraise=ProfileError
        ):
            if self.profile_source == "static":
                profile = synthesize_bundle(
                    module, max_blocks=test_input.max_blocks, seed=test_input.seed
                )
            else:
                profile = collect_trace(module, test_input)
        timings["instrument"] = time.perf_counter() - start

        layouts: dict[str, LayoutResult] = {"baseline": baseline_layout(module)}
        for name in self.optimizer_names:
            start = time.perf_counter()
            with error_context("optimize", program=program, layout=name):
                # The four model-driven optimizers accept the analysis
                # memo (kernel artifacts replay across builds); the
                # comparator extras may predate that keyword.
                kwargs = (
                    {"memo": self.memo}
                    if self.memo is not None and name in OPTIMIZERS
                    else {}
                )
                layouts[name] = self._optimizer(name)(
                    module, profile, self.optimizer_config, **kwargs
                )
            timings[f"optimize/{name}"] = time.perf_counter() - start

        result = BuildResult(
            program=program, profile=profile, layouts=layouts, timings=timings
        )

        if lint:
            start = time.perf_counter()
            for name, layout in layouts.items():
                with error_context("lint", program=program, layout=name):
                    result.lint_reports[name] = run_lint(
                        module, layout, profile, self.cache, lint_config,
                        layout_name=name,
                    )
            timings["lint"] = time.perf_counter() - start

        if static_lint:
            from ..staticlint.frequency import estimate_frequencies

            start = time.perf_counter()
            cfg = static_lint_config or StaticLintConfig()
            with error_context("static-lint", program=program):
                # The frequency estimate is layout-independent: compute
                # once, share across every layout's report.
                static_profile = estimate_frequencies(module, cfg.frequency)
            for name, layout in layouts.items():
                with error_context("static-lint", program=program, layout=name):
                    result.static_lint_reports[name] = run_static_lint(
                        module, layout, self.cache, cfg,
                        profile=static_profile, layout_name=name,
                    )
            timings["static-lint"] = time.perf_counter() - start

        if ref_input is not None:
            start = time.perf_counter()
            with error_context(
                "evaluate-instrument", program=program, reraise=ProfileError
            ):
                ref = collect_trace(module, ref_input)
            streams = {}
            for name, layout in layouts.items():
                with error_context("evaluate", program=program, layout=name):
                    streams[name] = fetch_lines(
                        ref.bb_trace, layout.address_map, self.cache.line_bytes
                    )
            with error_context("evaluate", program=program):
                for name, stats in zip(
                    streams, self._evaluate(list(streams.values()))
                ):
                    result.miss_ratios[name] = stats.misses / ref.instr_count
            timings["evaluate"] = time.perf_counter() - start

        if build_dir is not None:
            out = Path(build_dir)
            with error_context(
                "persist", program=program, path=out, reraise=ArtifactError
            ):
                out.mkdir(parents=True, exist_ok=True)
                save_bundle(profile, out / "trace.npz")
                for name, layout in layouts.items():
                    save_layout(layout, out / f"layout-{name}.json")
                save_report(result.report(), out / "report.json")
            result.build_dir = out
        return result
