"""Parametric synthetic program generator (SPEC CPU2006 stand-in).

The paper evaluates on SPEC CPU2006, which we cannot ship or compile; what
its models actually consume is the programs' *instruction-locality
structure*.  The generator produces IR programs spanning the same
qualitative regimes:

* a **driver loop** in ``main`` calls a chain of *stage* functions
  (program phases);
* each stage runs an inner loop over *work* blocks that branch to rarely
  executed cold blocks and call *leaf* functions;
* **leaf functions** follow the paper's Fig. 3 pattern: a branch selects
  one of two halves per invocation, with *phase-modulated* probabilities,
  so related halves of different leaves execute together — the structure
  that makes inter-procedural basic-block reordering profitable;
* **cold padding functions** (startup/error/bookkeeping code) inflate the
  static code size;
* the **declaration order is scrambled** (hot and cold interleaved, blocks
  within functions shuffled) to model source-order layouts, which is what
  gives layout optimizers their headroom — exactly why such passes exist.

Everything is seeded and deterministic.  The knob with the largest effect
on the solo I-cache miss ratio is ``hot_code_factor``: the ratio of hot
path bytes to cache capacity (< 0.5 fits comfortably; > 1.5 thrashes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.state import InputSpec
from ..ir.builder import ModuleBuilder
from ..ir.module import DataAccess, Module

__all__ = ["WorkloadSpec", "build_program"]


def _partial_shuffle(seq: list, rng: np.random.Generator, strength: float) -> list:
    """Displace a ``strength`` fraction of elements (0 = none, 1 = all)."""
    if strength <= 0 or len(seq) < 2:
        return list(seq)
    out = list(seq)
    k = int(round(len(seq) * min(strength, 1.0)))
    if k < 2:
        return out
    idx = rng.choice(len(seq), size=k, replace=False).tolist()
    values = [out[i] for i in idx]
    perm = rng.permutation(k).tolist()
    for slot, p in zip(idx, perm):
        out[slot] = values[p]
    return out


@dataclass(frozen=True)
class WorkloadSpec:
    """Full description of one synthetic program.

    The defaults produce a mid-sized, moderately cache-hungry program; the
    suite (:mod:`repro.workloads.suite`) derives 29 named variants.
    """

    name: str
    #: seed for the structure-generation RNG.
    seed: int = 0

    # -- program shape ------------------------------------------------------
    #: number of stage functions called from the driver loop.
    n_stages: int = 6
    #: leaf functions per stage.
    leaves_per_stage: int = 4
    #: work blocks in each stage's inner loop body.
    work_blocks: int = 6
    #: instructions per hot block, (lo, hi).
    hot_block_instr: tuple[int, int] = (6, 24)
    #: instructions per cold block, (lo, hi).
    cold_block_instr: tuple[int, int] = (20, 60)
    #: cold padding functions and their block count.
    n_cold_functions: int = 30
    cold_function_blocks: int = 8

    # -- dynamic behaviour ---------------------------------------------------
    #: inner-loop trip counts per stage, (lo, hi).
    inner_trips: tuple[int, int] = (4, 12)
    #: probability a work block detours to its cold block.
    p_cold: float = 0.03
    #: probability a work block calls a leaf (vs plain fallthrough).
    p_call: float = 0.8
    #: leaf half-selection bias in even phases (odd phases get 1 - bias).
    leaf_phase_bias: float = 0.92
    #: dynamic blocks per phase (0 disables phase modulation).
    phase_period: int = 8192
    #: when True, even phases run the first half of the stages and odd
    #: phases the second half (whole-function phase behaviour — the
    #: structure function-level affinity exploits).  When False, every
    #: iteration runs all stages.
    phase_stage_split: bool = False
    #: how the driver loop visits stages: "chain" calls every stage each
    #: iteration (uniform reuse distances); "zipf" picks one stage per
    #: iteration with Zipf(s)-distributed popularity, producing the smooth
    #: working-set spectrum of real programs (hot stages reused at short
    #: distances, cold ones at long distances).
    dispatch: str = "chain"
    #: Zipf exponent for ``dispatch="zipf"``.
    zipf_s: float = 1.1

    # -- layout scrambling ----------------------------------------------------
    # Real source order is neither optimal nor random: functions appear
    # roughly where the programmer wrote them, with hot and cold
    # interleaved; block order inside a function mostly follows control
    # flow.  The strengths below are the fraction of elements displaced
    # (0 = leave generation order, 1 = full shuffle).
    #: fraction of functions displaced in the declaration order.
    scramble_functions: float = 0.8
    #: fraction of non-entry blocks displaced inside each function.
    scramble_blocks: float = 0.35

    # -- machine characteristics ----------------------------------------------
    #: data-side stall cycles per instruction (program's data intensity).
    data_cpi: float = 1.2
    #: probability a work block streams through memory (vs reusing locals);
    #: drives the program's unified-cache (Eq. 1) data footprint.
    p_stream: float = 0.4
    #: region size (in lines) of streaming data walks.
    stream_region_lines: int = 2048

    # -- inputs ---------------------------------------------------------------
    #: dynamic basic-block budget of the profiling (test) input.
    test_blocks: int = 120_000
    #: dynamic basic-block budget of the evaluation (ref) input.
    ref_blocks: int = 400_000

    def test_input(self) -> InputSpec:
        """The profiling input (different seed and phase from ref)."""
        return InputSpec(
            name="test", seed=self.seed * 7919 + 13, max_blocks=self.test_blocks
        )

    def ref_input(self) -> InputSpec:
        """The evaluation input."""
        return InputSpec(
            name="ref",
            seed=self.seed * 104729 + 71,
            max_blocks=self.ref_blocks,
            phase_offset=self.phase_period // 3 if self.phase_period else 0,
        )


def build_program(spec: WorkloadSpec) -> Module:
    """Generate the IR module described by ``spec``."""
    rng = np.random.default_rng(spec.seed)

    def instr(bounds: tuple[int, int]) -> int:
        return int(rng.integers(bounds[0], bounds[1] + 1))

    builder = ModuleBuilder(spec.name)
    # Function bodies are assembled first; declaration order is decided at
    # the end (scrambling).
    pending: list[tuple[str, list]] = []  # (func name, block specs)

    def leaf_data() -> DataAccess | None:
        """Data behaviour of a leaf half: mostly reused locals."""
        roll = rng.random()
        if roll < 0.70:
            return DataAccess("local", 1, region_lines=16)
        if roll < 0.85:
            return DataAccess("shared", 1, region_lines=8)
        return None

    def work_data() -> DataAccess | None:
        """Data behaviour of a stage work block: locals or streaming."""
        if rng.random() < spec.p_stream:
            return DataAccess("stream", 1, region_lines=spec.stream_region_lines)
        return DataAccess("local", 1, region_lines=32)

    # ---- leaves (Fig. 3 pattern) -------------------------------------------
    leaf_names: list[list[str]] = []
    for s in range(spec.n_stages):
        names = []
        for l in range(spec.leaves_per_stage):
            fname = f"leaf_{s}_{l}"
            names.append(fname)
            bias = spec.leaf_phase_bias
            blocks = [
                (
                    "entry",
                    instr(spec.hot_block_instr) // 2 + 1,
                    (
                        "branch",
                        "half_a",
                        "half_b",
                        bias,
                        (1.0 - bias) if spec.phase_period else None,
                        spec.phase_period,
                    ),
                ),
                ("half_a", instr(spec.hot_block_instr), ("ret",), leaf_data()),
                ("half_b", instr(spec.hot_block_instr), ("ret",), leaf_data()),
            ]
            pending.append((fname, blocks))
        leaf_names.append(names)

    # ---- stages --------------------------------------------------------------
    stage_names = []
    for s in range(spec.n_stages):
        fname = f"stage_{s}"
        stage_names.append(fname)
        trips = int(rng.integers(spec.inner_trips[0], spec.inner_trips[1] + 1))
        blocks: list = [
            ("entry", instr(spec.hot_block_instr) // 2 + 1, ("jump", "loop")),
            ("loop", 1, ("loopbr", "work_0", "ret_blk", trips)),
        ]
        for j in range(spec.work_blocks):
            nxt = f"work_{j + 1}" if j + 1 < spec.work_blocks else "loop"
            leaf_pool = leaf_names[s]
            roll = rng.random()
            if roll < spec.p_call and leaf_pool:
                leaf = leaf_pool[int(rng.integers(len(leaf_pool)))]
                # work block branches to a cold detour, then calls a leaf.
                blocks.append(
                    (
                        f"work_{j}",
                        instr(spec.hot_block_instr),
                        ("branch", f"cold_{j}", f"call_{j}", spec.p_cold, None, 0),
                        work_data(),
                    )
                )
                blocks.append(
                    (f"call_{j}", 2, ("call", leaf, nxt))
                )
                blocks.append(
                    (f"cold_{j}", instr(spec.cold_block_instr), ("jump", f"call_{j}"))
                )
            else:
                blocks.append(
                    (
                        f"work_{j}",
                        instr(spec.hot_block_instr),
                        ("branch", f"cold_{j}", nxt, spec.p_cold, None, 0),
                        work_data(),
                    )
                )
                blocks.append(
                    (f"cold_{j}", instr(spec.cold_block_instr), ("jump", nxt))
                )
        blocks.append(("ret_blk", 1, ("ret",)))
        pending.append((fname, blocks))

    # ---- cold padding functions ----------------------------------------------
    for c in range(spec.n_cold_functions):
        fname = f"cold_fn_{c}"
        blocks = []
        for j in range(spec.cold_function_blocks):
            nxt = (
                f"b{j + 1}"
                if j + 1 < spec.cold_function_blocks
                else None
            )
            bname = f"b{j}" if j else "entry"
            if nxt is None:
                blocks.append((bname, instr(spec.cold_block_instr), ("ret",)))
            else:
                blocks.append((bname, instr(spec.cold_block_instr), ("jump", nxt)))
        pending.append((fname, blocks))

    # ---- main driver -----------------------------------------------------------
    # The driver loop budget is effectively unbounded; runs stop at the
    # input's dynamic block budget, standing in for input size.
    if spec.dispatch == "zipf":
        # Weighted one-stage-per-iteration dispatch: a smooth popularity
        # gradient over stages, optionally phase-reversed.
        ranks = np.arange(1, len(stage_names) + 1, dtype=float)
        weights_a = list(1.0 / ranks**spec.zipf_s)
        weights_b = weights_a[::-1]
        main_blocks = [
            ("entry", 4, ("jump", "loop")),
            ("loop", 1, ("loopbr", "dispatch", "done", 1_000_000)),
        ]
        call_names = [f"call_{s}" for s in range(len(stage_names))]
        if spec.phase_stage_split and spec.phase_period:
            main_blocks.append(
                ("dispatch", 2, ("branch", "sw_a", "sw_b", 0.97, 0.03, spec.phase_period))
            )
            main_blocks.append(("sw_a", 1, ("switch", call_names, weights_a)))
            main_blocks.append(("sw_b", 1, ("switch", call_names, weights_b)))
        else:
            main_blocks.append(("dispatch", 2, ("switch", call_names, weights_a)))
        for s, sname in enumerate(stage_names):
            main_blocks.append((f"call_{s}", 2, ("call", sname, "loop")))
        main_blocks.append(("done", 1, ("exit",)))
    elif spec.phase_stage_split and len(stage_names) >= 2 and spec.phase_period:
        half = len(stage_names) // 2
        group_a = stage_names[:half]
        group_b = stage_names[half:]
        main_blocks: list = [
            ("entry", 4, ("jump", "loop")),
            ("loop", 1, ("loopbr", "dispatch", "done", 1_000_000)),
            # Even phases overwhelmingly run group A, odd phases group B.
            (
                "dispatch",
                2,
                ("branch", "a_0", "b_0", 0.97, 0.03, spec.phase_period),
            ),
        ]
        for prefix, group in (("a", group_a), ("b", group_b)):
            for s, sname in enumerate(group):
                nxt = f"{prefix}_{s + 1}" if s + 1 < len(group) else "loop"
                main_blocks.append((f"{prefix}_{s}", 2, ("call", sname, nxt)))
        main_blocks.append(("done", 1, ("exit",)))
    else:
        main_blocks = [
            ("entry", 4, ("jump", "loop")),
            ("loop", 1, ("loopbr", "call_0", "done", 1_000_000)),
        ]
        for s, sname in enumerate(stage_names):
            nxt = f"call_{s + 1}" if s + 1 < len(stage_names) else "loop"
            main_blocks.append((f"call_{s}", 2, ("call", sname, nxt)))
        main_blocks.append(("done", 1, ("exit",)))
    pending.append(("main", main_blocks))

    # ---- declaration order -----------------------------------------------------
    order = _partial_shuffle(list(range(len(pending))), rng, spec.scramble_functions)
    # main must exist but need not be first; keep whatever order fell out.

    for idx in order:
        fname, blocks = pending[idx]
        block_order = list(range(len(blocks)))
        if spec.scramble_blocks > 0 and len(blocks) > 2:
            block_order = [0] + _partial_shuffle(
                block_order[1:], rng, spec.scramble_blocks
            )
        fb = builder.function(fname)
        for bi in block_order:
            spec_tuple = blocks[bi]
            if len(spec_tuple) == 4:
                bname, n, term, data = spec_tuple
            else:
                bname, n, term = spec_tuple
                data = None
            setter = fb.block(bname, n, data=data)
            kind = term[0]
            if kind == "jump":
                setter.jump(term[1])
            elif kind == "branch":
                _, then, orelse, p, pp, period = term
                setter.branch(then, orelse, taken_prob=p, phase_prob=pp, phase_period=period)
            elif kind == "switch":
                setter.switch(list(term[1]), list(term[2]))
            elif kind == "call":
                setter.call(term[1], return_to=term[2])
            elif kind == "loopbr":
                setter.loop(term[1], term[2], trips=term[3])
            elif kind == "ret":
                setter.ret()
            elif kind == "exit":
                setter.exit()
            else:  # pragma: no cover - generator-internal
                raise ValueError(kind)
    return builder.build()
