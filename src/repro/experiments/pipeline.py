"""Experiment orchestration: the :class:`Lab`.

Every experiment follows the same pipeline:

    build program -> instrument (each input when it is first asked for:
    the test input by an optimizer, the ref input by a measurement) ->
    run optimizers on the test profile ->
    expand layouts to fetch streams (ref input) -> simulate solo / co-run
    caches -> convert to miss ratios and cycle counts.

The :class:`Lab` owns that pipeline and memoizes every stage, because the
evaluation matrices (8 study programs x 8 probes x 4 optimizers x 2
measurement channels) re-visit the same artefacts hundreds of times.

Two measurement channels, as in the paper (Sec. III-A):

* ``sim``  — clean LRU simulation, no prefetch (the Pin-simulator channel);
* ``hw``   — next-line prefetcher plus seeded counter noise
  (:mod:`repro.machine.counters`, the PAPI channel).  Timing always uses
  this channel, because the paper times real runs.

The ``sim`` channel is exactly the stack-distance kernel's domain (cold
cache, no prefetch, true LRU), so the lab answers it from
:meth:`Lab.histogram`: one histogram per (program, layout, n_sets)
answers every associativity, which collapses geometry sweeps.  Which
code computes the histogram and the locality models is the lab's kernel
tier (``kernel_backend``; ``scalar`` is the oracle run, see
:mod:`repro.perf.backends`).  The event-driven simulators stay the path
for the ``hw`` channel and co-runs.

``scale`` shrinks every program's test/ref trace budgets; benchmarks run
the full experiment logic at a fraction of the cost.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..cache.config import PAPER_L1I, CacheConfig
from ..cache.fastsim import DistanceHistogram
# No caller here: the sim channel reads Lab.histogram.  The name stays
# importable from this module because the traced benchmark run
# (perfbench/spans.py) wraps it where the pipeline looks it up.
from ..cache.setassoc import simulate  # noqa: F401
from ..cache.shared import pass_scale, simulate_shared
from ..cache.stats import CacheStats
from ..core.optimizers import BASELINE, OptimizerConfig, build_layout
from ..core.optimizers import optimize as optimize_layout
from ..engine.fetch import fetch_lines
from ..engine.instrument import (
    TraceBundle,
    bundle_entry,
    bundle_from_entry,
    bundle_key,
    collect_trace,
)
from ..engine.state import InputSpec
from ..ir.module import Module
from ..ir.transforms import LayoutResult
from ..locality.footprint import FootprintCurve, footprint_curve
from ..machine.counters import measure_corun, measure_solo, reading_from_stats
from ..machine.smt import CoRunTiming, corun_pair
from ..machine.timing import ThreadCost, TimingParams, thread_cost
from ..perf.memo import curve_key, recipe_curve_key
from ..perf.telemetry import add_into
from ..robust.errors import ArtifactError, ProfileError, error_context
from ..staticlint.profile import synthesize_bundle
from ..workloads.suite import SuiteProgram, get_program, scaled_spec
from ..workloads.suite import build as build_suite_program

__all__ = ["BASELINE", "THREAD_STRIDE", "Lab", "MissRatios", "PreparedProgram"]

#: dtype of every fetch stream the lab hands out.  The cast to it is
#: the one step between the salted packages' fetch and a baseline
#: curve, so recipe curve keys carry it (see Lab._curve_lookup).
LINE_DTYPE = np.int32

#: Line-index offset applied to the second co-run thread.  Co-running
#: processes occupy disjoint physical pages, so their fetch streams must
#: not alias in the physically-indexed shared cache — without this, a
#: program co-run with itself would share every line and show zero
#: contention.  The extra 64 lines (one 4 KB page) rotates the set mapping
#: so self-pairs are not pathologically set-aligned either.
THREAD_STRIDE = (1 << 22) + 64


@dataclass
class PreparedProgram:
    """All per-program artefacts the experiments reuse.

    Both input runs are made by ``make_bundle`` on their first access and
    kept: ``ref_bundle``, the measurement run, and ``test_bundle``, the
    optimizers' profile.  A run that only measures (the fleet's baseline
    curves) never interprets the test input, and one that only reads the
    profile (the lint CLIs) never interprets the ref input.
    """

    prog: SuiteProgram
    module: Module
    make_bundle: Callable[[str], TraceBundle] = field(repr=False, compare=False)

    @functools.cached_property
    def ref_bundle(self) -> TraceBundle:
        return self.make_bundle("ref")

    @functools.cached_property
    def test_bundle(self) -> TraceBundle:
        return self.make_bundle("test")

    @property
    def name(self) -> str:
        return self.prog.name

    @property
    def instr_count(self) -> int:
        return self.ref_bundle.instr_count

    @property
    def data_cpi(self) -> float:
        return self.prog.spec.data_cpi


@dataclass(frozen=True)
class MissRatios:
    """One program's miss measurement under some configuration."""

    misses: float
    instructions: int

    @property
    def ratio(self) -> float:
        return self.misses / self.instructions if self.instructions else 0.0


class Lab:
    """Caching experiment context.

    Parameters
    ----------
    cache_cfg: cache geometry (paper default 32KB/4-way/64B).
    scale: trace-budget multiplier in (0, 1]; 1.0 = full evaluation.
    optimizer_config: shared knobs for the four optimizers.
    quantum: SMT fetch interleaving granularity, in line accesses.
    noise_sigma: hardware-counter noise (0 disables).
    timing: CPI model constants.
    jobs: worker processes for the cell fan-outs of
        :meth:`precompute_solo` and :meth:`precompute_footprints` (1 =
        fully serial; never changes results, only wall-clock time).  A
        fanned-out baseline curve of a program the lab has not prepared
        is made whole in a worker, build and interpreter run included,
        so a cold fleet run prepares its programs in parallel.
    memo: optional :class:`repro.perf.memo.SimMemo` replaying identical
        solo simulations instead of re-running them.  It also keeps the
        footprint curves: baseline curves under their *recipe* (the ref
        run's bundle key, layout, line size and stream dtype), so a warm
        :meth:`footprint` builds no module; optimized layouts' curves
        under their stream's content (see :meth:`_curve_lookup`).
    kernel_backend: requested kernel tier name for the stack-distance
        histogram and the locality models (see
        :mod:`repro.perf.backends`) — the lab's only choice of kernel
        implementation; ``"scalar"`` runs the oracles.  ``None`` (default)
        resolves to ``numpy``; an unknown name raises ``ValueError``.
        Also mirrored into ``optimizer_config.kernel_backend`` so the
        analysis kernels the optimizers run inherit the same tier.
    store: optional :class:`repro.perf.store.TraceStore`.  When set, the
        cell fan-outs publish each fetch stream once and ship ~100-byte
        :class:`~repro.perf.store.StoreRef` descriptors to workers, which
        attach with zero-copy memmap reads; the stream's content digest
        doubles as the memo-key ingredient, so nothing is hashed twice.
        The store also keeps each instrumented run's trace under its
        recipe (:func:`repro.engine.instrument.bundle_key`), whoever
        made it (this lab or a pool worker), so a later lab that needs
        the run reads it instead of interpreting the program again.  A
        baseline curve that is a memo hit needs neither: no module, no
        run.  Purely a speed optimization — results are bit-identical.

    The lab doubles as the telemetry source: :attr:`timings` accumulates
    per-stage wall-clock seconds (monotonic clock) and :attr:`counters`
    tracks simulated line accesses; :meth:`snapshot` bundles both with
    the memo/store counters and the backend tier for ``BENCH_perf.json``.
    """

    def __init__(
        self,
        cache_cfg: CacheConfig = PAPER_L1I,
        scale: float = 1.0,
        optimizer_config: Optional[OptimizerConfig] = None,
        quantum: int = 8,
        noise_sigma: float = 0.01,
        timing: TimingParams = TimingParams(),
        jobs: int = 1,
        memo=None,
        kernel_backend: Optional[str] = None,
        profile_source: str = "trace",
        store=None,
    ):
        if not 0.0 < scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if profile_source not in ("trace", "static"):
            raise ValueError(
                f"unknown profile_source {profile_source!r} "
                "(expected 'trace' or 'static')"
            )
        self.cache_cfg = cache_cfg
        self.scale = scale
        self.optimizer_config = optimizer_config or OptimizerConfig(cache=cache_cfg)
        #: requested kernel tier (travels through spawn_config; workers
        #: resolve the same name).
        self.kernel_backend = kernel_backend
        if kernel_backend is not None:
            self.optimizer_config = dataclasses.replace(
                self.optimizer_config, kernel_backend=kernel_backend
            )
        from ..perf.backends import resolve_backend

        #: the resolved tier every histogram of this lab runs on.
        self.backend = resolve_backend(kernel_backend)
        self.quantum = quantum
        self.noise_sigma = noise_sigma
        self.timing = timing
        self.jobs = jobs
        self.memo = memo
        self.store = store
        #: lazily created persistent CellPool (reused across fan-outs).
        self._cell_pool = None
        #: store counters of the pool workers' labs (see _recipe_curves).
        self._worker_store: dict[str, int] = {}
        #: where the *optimization* profile (test input) comes from:
        #: "trace" instruments a real run; "static" synthesizes the test
        #: bundle from CFG structure alone (no-profile layout builds).
        #: The ref-input measurement channel is always a real trace, so
        #: evaluations measure what the static profile actually bought.
        self.profile_source = profile_source
        # Analysis artifacts always go through a memo, so repeated layout
        # builds (Lab.optimize sweeps) replay them; without a
        # user-supplied SimMemo it is private and purely in-memory.
        if memo is not None:
            self._analysis_memo = memo
        else:
            from ..perf.memo import SimMemo

            self._analysis_memo = SimMemo()

        #: per-stage wall seconds: prepare / optimize / fetch / simulate.
        self.timings: dict[str, float] = {}
        #: seconds the stages nested in the running one took (see _stage).
        self._nested_s = 0.0
        #: throughput counters: nominal line accesses simulated + seconds,
        #: split scalar (sim_*) vs. stack-distance kernel (kernel_*);
        #: kernel_passes counts histogram computations, kernel_cells the
        #: measurement cells those histograms answered.  The analysis_*
        #: group tracks the locality-model kernels the same way: cells =
        #: analyses consumed by optimizers, passes = fresh kernel runs,
        #: memo_hits = replays.
        self.counters: dict[str, float] = {
            "sim_accesses": 0,
            "sim_seconds": 0.0,
            "kernel_accesses": 0,
            "kernel_seconds": 0.0,
            "kernel_passes": 0,
            "kernel_cells": 0,
            "analysis_accesses": 0,
            "analysis_seconds": 0.0,
            "analysis_passes": 0,
            "analysis_cells": 0,
            "analysis_memo_hits": 0,
            # Footprint-curve composition (repro.fleet): curve_passes =
            # fresh all-window histogram passes, curve_memo_hits =
            # replays, fleet_cells = co-run matrix cells those curves
            # answered.  cells >> passes is the whole point — the
            # fleet-bench gate asserts the ratio.
            "curve_passes": 0,
            "curve_seconds": 0.0,
            "curve_memo_hits": 0,
            "fleet_cells": 0,
            "fleet_seconds": 0.0,
            # Cell-dispatch transport: bytes that crossed the process
            # boundary pickled vs. bytes workers memmapped from the
            # store, plus persistent-pool amortization.
            "store_bytes_shipped": 0,
            "store_bytes_mapped": 0,
            "pool_fanouts": 0,
            "pool_reuses": 0,
        }

        self._programs: dict[str, PreparedProgram] = {}
        self._layouts: dict[tuple[str, str], LayoutResult] = {}
        self._lines: dict[tuple[str, str], np.ndarray] = {}
        self._hists: dict[tuple[str, str, int], "DistanceHistogram"] = {}
        self._curves: dict[tuple[str, str], FootprintCurve] = {}
        self._solo: dict[tuple[str, str, str], MissRatios] = {}
        self._corun: dict[tuple, tuple[MissRatios, MissRatios]] = {}

    # -- telemetry -----------------------------------------------------------

    @contextmanager
    def _stage(
        self, name: str, accesses: int = 0, *, kernel: bool = False
    ) -> Iterator[SimpleNamespace]:
        """Accumulate the block's monotonic wall time under ``name``.

        Time spent in stages nested inside the block (a fan-out building
        its streams) counts only under those stages.  ``accesses`` (also
        settable on the yielded tally, for blocks that learn their work
        as they go) feed the scalar throughput counters, or the
        ``kernel_*`` pair when the block ran the stack-distance kernel.
        """
        tally = SimpleNamespace(accesses=accesses)
        outer_nested, self._nested_s = self._nested_s, 0.0
        start = time.perf_counter()
        try:
            yield tally
        finally:
            total = time.perf_counter() - start
            elapsed = total - self._nested_s
            self._nested_s = outer_nested + total
            self.timings[name] = self.timings.get(name, 0.0) + elapsed
            if tally.accesses:
                prefix = "kernel" if kernel else "sim"
                self.counters[f"{prefix}_accesses"] += tally.accesses
                self.counters[f"{prefix}_seconds"] += elapsed

    def snapshot(self) -> dict:
        """The lab's telemetry as one record (copied, so a snapshot taken
        before some work can be diffed against one taken after with
        :func:`repro.perf.telemetry.delta`)."""
        return {
            "stages": dict(self.timings),
            "counters": dict(self.counters),
            "memo": self.memo.counters() if self.memo is not None else {},
            "store": add_into(self.store.counters(), self._worker_store)
            if self.store is not None
            else {},
            "kernel_backend": self.backend.name,
        }

    def spawn_config(self) -> dict:
        """Picklable constructor kwargs reproducing this lab's behavior.

        Used to build identical labs inside worker processes; memoized
        artefacts and telemetry deliberately do not travel (the ``memo``
        is re-attached from its directory by the worker initializer).
        """
        return {
            "cache_cfg": self.cache_cfg,
            "scale": self.scale,
            "optimizer_config": self.optimizer_config,
            "quantum": self.quantum,
            "noise_sigma": self.noise_sigma,
            "timing": self.timing,
            "kernel_backend": self.kernel_backend,
            "profile_source": self.profile_source,
        }

    # -- cell transport ------------------------------------------------------

    def cell_pool(self):
        """The lab's persistent :class:`~repro.perf.parallel.CellPool` of
        ``jobs`` workers.

        Spawned lazily on first fan-out and reused by every subsequent
        one (``precompute_solo``, ``precompute_footprints``) —
        the workers and their store attachment survive across calls
        instead of being rebuilt per map.
        """
        from ..perf.parallel import CellPool

        if self._cell_pool is None:
            self._cell_pool = CellPool(
                self.jobs, store=self.store, kernel_backend=self.kernel_backend
            )
        return self._cell_pool

    def _memoized_cells(self, kind: str, cells: list, params: tuple) -> tuple[list, int]:
        """Fan the fetch streams of ``(program, layout, ...)`` cells out
        through :func:`~repro.perf.parallel.memoized_cells` on the lab's
        memo, store and pool.  Curves are timed under ``compose``; stats
        and histograms under ``simulate``, where the streams computed
        fresh count as scalar or kernel accesses.  Returns the results
        and how many were computed fresh (memo misses)."""
        from ..perf.parallel import memoized_cells

        stage = "compose" if kind == "curve" else "simulate"
        with self._stage(stage, kernel=kind == "histogram") as tally, error_context(
            stage, program=f"precompute-{kind}"
        ):
            results, missed = memoized_cells(
                kind,
                # Built one at a time, interleaved with the memo reads,
                # which keeps the peak memory of a warm run down.
                ((self.lines(cell[0], cell[1]), *params) for cell in cells),
                memo=self.memo,
                store=self.store,
                pool=self.cell_pool,
                counters=self.counters,
            )
            if stage == "simulate":
                tally.accesses = sum(len(self.lines(*cells[i][:2])) for i in missed)
        return results, len(missed)

    def close(self) -> None:
        """Release the persistent cell pool (idempotent; the lab stays
        usable and respawns workers on the next fan-out)."""
        if self._cell_pool is not None:
            self._cell_pool.shutdown()
            self._cell_pool = None

    def __enter__(self) -> "Lab":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- program preparation -------------------------------------------------

    def program(self, name: str) -> PreparedProgram:
        """Build a suite program (memoized; each input is instrumented
        when its bundle is first read, see :meth:`_bundle`).

        An unknown program name, or a module that breaks instrumentation
        once a bundle is read, raises
        :class:`~repro.robust.errors.ProfileError` carrying the stage and
        program.
        """
        prepared = self._programs.get(name)
        if prepared is None:
            with self._stage("prepare"), error_context(
                "prepare", program=name, reraise=ProfileError
            ):
                spec = scaled_spec(get_program(name).spec, self.scale)
                prog, module = build_suite_program(
                    name, ref_blocks=spec.ref_blocks, test_blocks=spec.test_blocks
                )
                prepared = PreparedProgram(
                    prog=prog,
                    module=module,
                    make_bundle=functools.partial(self._bundle, prog, module),
                )
            self._programs[name] = prepared
        return prepared

    def _bundle(self, prog: SuiteProgram, module: Module, which: str) -> TraceBundle:
        """One input run of a prepared program, made on first use (timed
        and reported as ``prepare``): ``"ref"`` is the measurement run;
        ``"test"`` is the optimization profile, the test input's run or,
        when ``profile_source`` is ``"static"``, its synthesis from CFG
        structure alone."""
        with self._stage("prepare"), error_context(
            "prepare", program=prog.name, reraise=ProfileError
        ):
            if which == "ref":
                return self._instrument(prog, module, prog.spec.ref_input())
            test_input = prog.spec.test_input()
            if self.profile_source == "static":
                return synthesize_bundle(
                    module, max_blocks=test_input.max_blocks, seed=test_input.seed
                )
            return self._instrument(prog, module, test_input)

    def _instrument(
        self, prog: SuiteProgram, module: Module, spec: InputSpec
    ) -> TraceBundle:
        """:func:`collect_trace`, replayed from the store when it holds
        this run's recipe-keyed trace.  A fresh run is published; an
        invalid entry is dropped (``corrupt_dropped``) and re-run."""
        if self.store is None:
            return collect_trace(module, spec)
        key = f"bundles/{bundle_key(prog.spec, spec)}"
        entry = self.store.read(key)
        if entry is not None:
            try:
                return bundle_from_entry(module, spec, entry)
            except ArtifactError:
                self.store.discard(key)
        bundle = collect_trace(module, spec)
        self.store.put(bundle_entry(bundle), key=key)
        return bundle

    def layout(self, name: str, layout_name: str) -> LayoutResult:
        """A layout of the catalog (:data:`~repro.core.optimizers.LAYOUTS`),
        memoized.  The baseline reads no profile, so it runs no test input.

        Unknown layout names and optimizer blow-ups raise
        :class:`~repro.robust.errors.SimulationError` (stage ``optimize``).
        """
        key = (name, layout_name)
        result = self._layouts.get(key)
        if result is None:
            prepared = self.program(name)
            # Made outside the optimize stage: its time and errors are
            # the program's "prepare".
            profile = None if layout_name == BASELINE else prepared.test_bundle
            with self._stage("optimize"), error_context(
                "optimize", program=name, layout=layout_name
            ):
                result = build_layout(
                    layout_name,
                    prepared.module,
                    profile,
                    self.optimizer_config,
                    memo=self._analysis_memo,
                    stats=self.counters,
                )
            self._layouts[key] = result
        return result

    def optimize(self, name: str, granularity, model, config) -> LayoutResult:
        """Run one optimizer with a custom config through the lab.

        The ablation experiments sweep optimizer parameters the four
        named layouts pin down; routing them here (instead of calling
        :func:`repro.core.optimizers.optimize` directly) keeps the lab's
        analysis memo, ``analysis_*`` counters, and the lab's kernel tier
        in force for every layout build in a suite run.  Not memoized:
        sweeps never repeat a config.
        """
        prepared = self.program(name)
        config = dataclasses.replace(
            config, kernel_backend=self.optimizer_config.kernel_backend
        )
        with self._stage("optimize"):
            return optimize_layout(
                prepared.module,
                prepared.test_bundle,
                granularity,
                model,
                config,
                memo=self._analysis_memo,
                stats=self.counters,
            )

    def supports(self, name: str, layout_name: str) -> bool:
        """False where the paper reported N/A (BB reordering failures)."""
        if layout_name.startswith("bb-"):
            return self.program(name).prog.bb_reorder_supported
        return True

    def lines(self, name: str, layout_name: str) -> np.ndarray:
        """Ref-input fetch stream of a program under a layout (memoized)."""
        key = (name, layout_name)
        stream = self._lines.get(key)
        if stream is None:
            bb_trace = self.program(name).ref_bundle.bb_trace
            amap = self.layout(name, layout_name).address_map
            with self._stage("fetch"), error_context(
                "fetch", program=name, layout=layout_name
            ):
                stream = fetch_lines(
                    bb_trace, amap, self.cache_cfg.line_bytes
                ).astype(LINE_DTYPE)
            self._lines[key] = stream
        return stream

    # -- measurements ----------------------------------------------------------

    def histogram(
        self, name: str, layout_name: str, n_sets: Optional[int] = None
    ) -> DistanceHistogram:
        """Stack-distance histogram of a program's fetch stream (memoized).

        One histogram answers the exact cold, prefetch-free LRU miss
        count for *every* associativity at ``n_sets`` (default: the
        lab's geometry) — the sim channel of :meth:`solo_miss` and the
        capacity sweep both read from here.  Distances depend only on
        the stream and ``n_sets``, so the entry is shared across
        ``size_bytes``/``assoc`` variations of the family.
        """
        n_sets = self.cache_cfg.n_sets if n_sets is None else int(n_sets)
        key = (name, layout_name, n_sets)
        hist = self._hists.get(key)
        if hist is None:
            stream = self.lines(name, layout_name)
            with self._stage(
                "simulate", accesses=len(stream), kernel=True
            ), error_context("simulate", program=name, layout=layout_name):
                if self.memo is not None:
                    misses_before = self.memo.misses
                    hist = self.memo.histogram(stream, n_sets, backend=self.backend)
                    if self.memo.misses > misses_before:
                        self.counters["kernel_passes"] += 1
                else:
                    hist = self.backend.histogram(stream, n_sets)
                    self.counters["kernel_passes"] += 1
            self._hists[key] = hist
        return hist

    def footprint(self, name: str, layout_name: str) -> FootprintCurve:
        """All-window footprint curve of a program's fetch stream (memoized).

        The curve depends on the stream alone — no geometry, no peers —
        so one entry answers every capacity and every co-run group the
        program appears in.  This is the reuse unit the fleet scheduler
        (:mod:`repro.fleet`) multiplies: millions of co-run cells, one
        curve pass per distinct (program, layout).  A memo hit on a
        baseline curve builds nothing (see :meth:`_curve_lookup`).
        """
        key = (name, layout_name)
        curve = self._curves.get(key)
        if curve is None:
            compose_s = self.timings.get("compose", 0.0)
            with self._stage("compose"), error_context(
                "compose", program=name, layout=layout_name
            ):
                curve, memo_key = self._curve_lookup(name, layout_name)
                if curve is None:
                    curve = footprint_curve(self.lines(name, layout_name))
                    if memo_key is not None:
                        self.memo.put_curve(memo_key, curve)
                    self.counters["curve_passes"] += 1
                else:
                    self.counters["curve_memo_hits"] += 1
            self.counters["curve_seconds"] += self.timings["compose"] - compose_s
            self._curves[key] = curve
        return curve

    def _curve_lookup(
        self, name: str, layout_name: str
    ) -> tuple[Optional[FootprintCurve], Optional[str]]:
        """The one memo probe of a ``(program, layout)`` curve.

        Baseline curves are keyed by *recipe*
        (:func:`~repro.perf.memo.recipe_curve_key`): the ref run's
        :func:`~repro.engine.instrument.bundle_key` (scaled spec, input,
        code salt), the layout, the line size and the stream dtype — so
        a hit builds no module and fetches no stream.  Optimized layouts
        stay keyed by their stream's content, because their streams also
        depend on ``repro.core`` and the optimizer config, which the
        code salt does not cover.

        Returns the stored curve (``None`` on a miss) and the key a fresh
        curve is stored under (``None`` without a memo).
        """
        if self.memo is None:
            return None, None
        if layout_name == BASELINE:
            spec = scaled_spec(get_program(name).spec, self.scale)
            key = recipe_curve_key(
                bundle_key(spec, spec.ref_input()),
                layout_name,
                self.cache_cfg.line_bytes,
                LINE_DTYPE,
            )
        else:
            key = curve_key(self.lines(name, layout_name))
        return self.memo.get_curve(key), key

    def precompute_footprints(self, cells: Sequence[tuple[str, str]]) -> None:
        """Fill the footprint-curve memo for many ``(program, layout)``
        cells at once.

        Every cell is looked up first (:meth:`_curve_lookup`, the probe
        :meth:`footprint` makes).  The misses fan out across the lab's
        ``jobs`` workers in one of two forms.  A baseline curve of a
        program this lab has not prepared goes as its recipe
        (:meth:`_recipe_curves`): the worker builds, instruments and
        fetches the program itself, so the parent never holds its module.
        Any other miss builds its stream here and ships it (a program the
        lab already holds, or an optimized layout, whose memo key is the
        stream's content).
        Bit-identical to calling :meth:`footprint` cell by cell — curves
        cross the process boundary in their exact float form — so this is
        purely a wall-clock optimization.
        """
        todo = [
            (name, layout_name)
            for name, layout_name in dict.fromkeys(tuple(c) for c in cells)
            if (name, layout_name) not in self._curves
        ]
        if self.jobs <= 1 or len(todo) <= 1:
            for name, layout_name in todo:
                self.footprint(name, layout_name)
            return

        compose_s = self.timings.get("compose", 0.0)
        with self._stage("compose"), error_context("compose", program="precompute-curve"):
            missed: list[tuple[tuple[str, str], Optional[str]]] = []
            for cell in todo:
                curve, memo_key = self._curve_lookup(*cell)
                if curve is None:
                    missed.append((cell, memo_key))
                else:
                    self._curves[cell] = curve
            # Classified after every lookup: an optimized layout's lookup
            # prepares its program, whose baseline then ships as a stream.
            recipes = [
                m for m in missed if m[0][1] == BASELINE and m[0][0] not in self._programs
            ]
            streams = [m for m in missed if m not in recipes]
            fresh = self._recipe_curves([cell[0] for cell, _ in recipes])
            fresh += self._memoized_cells("curve", [c for c, _ in streams], ())[0]
            for (cell, memo_key), curve in zip(recipes + streams, fresh):
                if memo_key is not None:
                    self.memo.put_curve(memo_key, curve)
                self._curves[cell] = curve
        self.counters["curve_passes"] += len(missed)
        self.counters["curve_memo_hits"] += len(todo) - len(missed)
        self.counters["curve_seconds"] += self.timings["compose"] - compose_s

    def _recipe_curves(self, names: list[str]) -> list[FootprintCurve]:
        """Baseline curves of unprepared programs, one ``recipe`` cell
        each (:data:`~repro.perf.parallel.CELL_KINDS`): a worker makes
        the curve on a serial lab of this lab's :meth:`spawn_config`, on
        the pool's store.  The workers' telemetry is folded into this
        lab's, so their build, interpreter and fetch time still shows
        under ``prepare`` and ``fetch``."""
        from ..perf.parallel import dispatch

        config = self.spawn_config()
        results = dispatch(
            "recipe",
            [(config, name) for name in names],
            pool=self.cell_pool,
            counters=self.counters,
        )
        for _, telemetry in results:
            add_into(self.timings, telemetry["stages"])
            add_into(self.counters, telemetry["counters"])
            add_into(self._worker_store, telemetry["store"])
        return [curve for curve, _ in results]

    def solo_miss(self, name: str, layout_name: str, channel: str = "hw") -> MissRatios:
        """Solo miss measurement through the given channel ('hw' or 'sim')."""
        if channel not in ("sim", "hw"):
            raise ValueError(f"unknown channel {channel!r}")
        key = (name, layout_name, channel)
        result = self._solo.get(key)
        if result is None:
            prepared = self.program(name)
            if channel == "sim":
                # The kernel's exact domain: cold cache, no prefetch.
                hist = self.histogram(name, layout_name)
                self.counters["kernel_cells"] += 1
                result = MissRatios(
                    hist.misses(self.cache_cfg.assoc), prepared.instr_count
                )
            else:
                stream = self.lines(name, layout_name)
                with self._stage(
                    "simulate", accesses=len(stream)
                ), error_context("simulate", program=name, layout=layout_name):
                    reading = measure_solo(
                        stream,
                        prepared.instr_count,
                        self.cache_cfg,
                        noise_sigma=self.noise_sigma,
                        measurement_id=f"{name}/{layout_name}",
                        memo=self.memo,
                    )
                result = MissRatios(reading.icache_misses, reading.instructions)
            self._solo[key] = result
        return result

    def precompute_solo(self, cells: Sequence[tuple[str, str, str]]) -> None:
        """Fill the solo-measurement memo for many cells at once.

        Each cell is ``(program, layout, channel)``.  Streams are built
        serially (they are memoized and cheap relative to simulation);
        the independent cache simulations then fan out across the lab's
        ``jobs`` worker processes.  Results are **bit-identical** to
        calling :meth:`solo_miss` cell by cell —
        the noise seeding and memo keys are shared with the serial path
        — so this is purely a wall-clock optimization.
        """
        for _, _, channel in cells:
            if channel not in ("sim", "hw"):
                raise ValueError(f"unknown channel {channel!r}")
        todo = [
            (name, layout_name, channel)
            for name, layout_name, channel in dict.fromkeys(tuple(c) for c in cells)
            if (name, layout_name, channel) not in self._solo
        ]
        if self.jobs <= 1 or len(todo) <= 1:
            for name, layout_name, channel in todo:
                self.solo_miss(name, layout_name, channel)
            return

        n_sets = self.cache_cfg.n_sets
        kernel_todo = [
            (name, layout_name)
            for name, layout_name, channel in todo
            if channel == "sim" and (name, layout_name, n_sets) not in self._hists
        ]
        hists, passes = self._memoized_cells("histogram", kernel_todo, (n_sets,))
        self.counters["kernel_passes"] += passes
        for (name, layout_name), hist in zip(kernel_todo, hists):
            self._hists[(name, layout_name, n_sets)] = hist
        hw_todo = [cell for cell in todo if cell[2] == "hw"]
        stats, _ = self._memoized_cells("stats", hw_todo, (self.cache_cfg, True))
        hw_stats = dict(zip(hw_todo, stats))
        for cell in todo:
            name, layout_name, channel = cell
            if channel == "sim":
                self.counters["kernel_cells"] += 1
                hist = self._hists[(name, layout_name, n_sets)]
                self._finish_solo_cell(cell, hist.stats(self.cache_cfg.assoc))
            else:
                self._finish_solo_cell(cell, hw_stats[cell])

    def _finish_solo_cell(self, cell: tuple[str, str, str], stats: CacheStats) -> None:
        """Convert raw cell stats into the memoized MissRatios entry."""
        name, layout_name, channel = cell
        prepared = self.program(name)
        if channel == "sim":
            result = MissRatios(stats.misses, prepared.instr_count)
        else:
            reading = reading_from_stats(
                stats,
                prepared.instr_count,
                self.cache_cfg,
                noise_sigma=self.noise_sigma,
                measurement_id=f"{name}/{layout_name}",
            )
            result = MissRatios(reading.icache_misses, reading.instructions)
        self._solo[cell] = result

    def corun_miss(
        self,
        a: tuple[str, str],
        b: tuple[str, str],
        channel: str = "hw",
    ) -> tuple[MissRatios, MissRatios]:
        """Co-run miss measurement for a pair of (program, layout) threads.

        Per-thread misses are normalized to one pass of each program's ref
        stream, so ratios stay comparable to solo measurements.
        """
        if channel not in ("sim", "hw"):
            raise ValueError(f"unknown channel {channel!r}")
        key = (a, b, channel)
        result = self._corun.get(key)
        if result is not None:
            return result

        pa, pb = self.program(a[0]), self.program(b[0])
        sa, sb = self.lines(*a), self.lines(*b) + THREAD_STRIDE
        with self._stage("simulate", accesses=len(sa) + len(sb)), error_context(
            "simulate", program=f"{a[0]}|{b[0]}", layout=f"{a[1]}|{b[1]}"
        ):
            if channel == "sim":
                stats = simulate_shared(
                    [sa, sb], self.cache_cfg, quantum=self.quantum, prefetch=False
                )
                st_a, st_b = stats
                result = (
                    MissRatios(st_a.misses * pass_scale(len(sa), st_a.accesses), pa.instr_count),
                    MissRatios(st_b.misses * pass_scale(len(sb), st_b.accesses), pb.instr_count),
                )
            else:
                readings = measure_corun(
                    [sa, sb],
                    [pa.instr_count, pb.instr_count],
                    self.cache_cfg,
                    quantum=self.quantum,
                    noise_sigma=self.noise_sigma,
                    measurement_id=f"{a[0]}/{a[1]}|{b[0]}/{b[1]}",
                )
                result = (
                    MissRatios(readings[0].icache_misses, readings[0].instructions),
                    MissRatios(readings[1].icache_misses, readings[1].instructions),
                )
        self._corun[key] = result
        return result

    # -- timing ------------------------------------------------------------------

    def solo_cost(self, name: str, layout_name: str) -> ThreadCost:
        """Cycle cost of a solo run (hw-channel misses, per the paper)."""
        prepared = self.program(name)
        miss = self.solo_miss(name, layout_name, channel="hw")
        return thread_cost(
            prepared.instr_count,
            int(miss.misses),
            prepared.data_cpi,
            self.timing,
        )

    def corun_timing(self, a: tuple[str, str], b: tuple[str, str]) -> CoRunTiming:
        """SMT co-run timing for a pair of (program, layout) threads."""
        miss_a, miss_b = self.corun_miss(a, b, channel="hw")
        pa, pb = self.program(a[0]), self.program(b[0])
        corun_costs = (
            thread_cost(pa.instr_count, int(miss_a.misses), pa.data_cpi, self.timing),
            thread_cost(pb.instr_count, int(miss_b.misses), pb.data_cpi, self.timing),
        )
        solo_costs = (self.solo_cost(*a), self.solo_cost(*b))
        return corun_pair(corun_costs, solo_costs, self.timing)

    def corun_speedup(self, target: str, layout_name: str, probe: str) -> float:
        """Paper Fig. 6 metric: optimized+original co-run vs original+original.

        Both co-runs pair the target with the unmodified probe; the speedup
        is the target's co-run completion-time ratio.
        """
        base = self.corun_timing((target, BASELINE), (probe, BASELINE))
        opt = self.corun_timing((target, layout_name), (probe, BASELINE))
        return base.corun_cycles[0] / opt.corun_cycles[0]

