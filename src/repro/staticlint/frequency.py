"""Static block-frequency estimation (no trace required).

Two classic techniques, composed:

* **Branch heuristics** (Ball–Larus / Wu–Larus flavoured) assign each
  outgoing CFG edge a probability from *structure alone*: back edges are
  very likely taken, edges leaving a loop are avoided, edges into
  program-exit blocks are avoided, and otherwise the fall-through side is
  mildly preferred (compilers lay the common path on the fall-through).
  :class:`~repro.ir.module.LoopBranch` trip counts are compile-time
  constants, so they contribute exact probabilities; the *runtime*
  parameters (``Branch.taken_prob``, ``Switch.weights``, phase modulation)
  are never consulted — they model profile data this analysis must not see.

* **Markov-chain propagation** turns edge probabilities into expected
  block execution counts: with ``P[u][v]`` the edge probability matrix of
  a function, the expected visit counts per function entry solve
  ``(I - Pᵀ) f = e_entry`` — a dense solve per function (CFGs here are
  tiny).  A damped retry handles the singular case of an inescapable
  cycle.  Interprocedurally, entry counts propagate top-down over the
  call-graph SCC condensation; recursive components converge via a
  damped fixpoint.

The result, :class:`StaticProfile`, carries a per-gid execution count like
the one the trace-driven linter counts from a real trace, so the lint
context (:class:`~repro.staticlint.conflict.StaticLintContext`) and other
downstream passes can consume either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ir.module import (
    Branch,
    Call,
    Exit,
    Jump,
    LoopBranch,
    Module,
    Switch,
)
from .dataflow import CallGraph, FunctionCFG, build_cfgs

__all__ = [
    "FrequencyConfig",
    "StaticProfile",
    "edge_probabilities",
    "estimate_frequencies",
]


@dataclass(frozen=True)
class FrequencyConfig:
    """Tunable probabilities for the structural branch heuristics."""

    #: probability the back-edge side of a conditional branch is taken.
    backedge_prob: float = 0.88
    #: probability of *staying* in the loop when one side exits it.
    loop_stay_prob: float = 0.85
    #: probability of avoiding a successor that terminates the program.
    noexit_prob: float = 0.9
    #: probability of the fall-through (else) side when no other
    #: heuristic applies — compilers put the common path there.
    fallthrough_prob: float = 0.7
    #: per-round damping inside recursive call-graph SCCs (must be < 1
    #: for the fixpoint to converge on arbitrary recursion).
    recursion_damping: float = 0.5
    #: clamp on per-function entry counts (guards degenerate CFGs).
    max_function_freq: float = 1e15
    #: damping used when a function's flow system is singular (a cycle
    #: with no escape probability).
    singular_damping: float = 0.999


@dataclass
class StaticProfile:
    """Estimated execution frequencies for every block of a module.

    ``block_freq[gid]`` is the expected number of executions of the block
    in one program run (module entry executed once).  ``func_freq`` maps
    function name to expected entry count; statically unreachable
    functions get 0.  ``edge_prob[gid]`` maps successor gids to the
    heuristic probabilities used, for passes that need edge weights
    (e.g. fall-through break costing).
    """

    module: Module
    config: FrequencyConfig
    block_freq: np.ndarray
    func_freq: dict[str, float]
    edge_prob: list[dict[int, float]]
    cfgs: dict[str, FunctionCFG] = field(repr=False)
    callgraph: CallGraph = field(repr=False)

    def call_site_freq(self) -> dict[int, float]:
        """gid of each call block -> estimated dynamic call count."""
        out: dict[int, float] = {}
        for block in self.module.iter_blocks():
            if block.terminator.callee() is not None:
                out[block.gid] = float(self.block_freq[block.gid])
        return out


def edge_probabilities(
    cfg: FunctionCFG, config: FrequencyConfig
) -> list[dict[int, float]]:
    """Per-block successor probabilities (local indices), structure only."""
    func = cfg.func
    probs: list[dict[int, float]] = []
    for u, block in enumerate(func.blocks):
        term = block.terminator
        out: dict[int, float] = {}
        if isinstance(term, Jump):
            out[cfg.index[term.target]] = 1.0
        elif isinstance(term, Call):
            out[cfg.index[term.return_to]] = 1.0
        elif isinstance(term, LoopBranch):
            back = cfg.index[term.back]
            exit_to = cfg.index[term.exit_to]
            trips = max(1, term.trips)
            if back == exit_to:
                out[back] = 1.0
            else:
                out[back] = (trips - 1) / trips
                out[exit_to] = 1.0 / trips
        elif isinstance(term, Switch):
            # Uniform over case slots; a target listed k times gets k/n.
            share = 1.0 / len(term.targets)
            for name in term.targets:
                j = cfg.index[name]
                out[j] = out.get(j, 0.0) + share
        elif isinstance(term, Branch):
            t = cfg.index[term.then]
            o = cfg.index[term.orelse]
            if t == o:
                out[t] = 1.0
            else:
                p_then = _branch_heuristic(cfg, config, u, t, o)
                out[t] = p_then
                out[o] = 1.0 - p_then
        # Return/Exit: no intra-procedural successors; flow leaves here.
        probs.append(out)
    return probs


def _branch_heuristic(
    cfg: FunctionCFG, config: FrequencyConfig, u: int, then: int, orelse: int
) -> float:
    """Probability of the *then* side of ``u``'s conditional branch."""
    back_t = cfg.is_back_edge(u, then)
    back_o = cfg.is_back_edge(u, orelse)
    if back_t != back_o:
        return config.backedge_prob if back_t else 1.0 - config.backedge_prob
    exit_t = cfg.is_loop_exit_edge(u, then)
    exit_o = cfg.is_loop_exit_edge(u, orelse)
    if exit_t != exit_o:
        # Prefer the side that stays inside the loop.
        return 1.0 - config.loop_stay_prob if exit_t else config.loop_stay_prob
    halt_t = isinstance(cfg.func.blocks[then].terminator, Exit)
    halt_o = isinstance(cfg.func.blocks[orelse].terminator, Exit)
    if halt_t != halt_o:
        return 1.0 - config.noexit_prob if halt_t else config.noexit_prob
    # Fall-through (else) side is the compiler's common path.
    return 1.0 - config.fallthrough_prob


def _solve_function(
    cfg: FunctionCFG, probs: list[dict[int, float]], config: FrequencyConfig
) -> np.ndarray:
    """Expected visits per block for one function entry: (I - Pᵀ) f = e."""
    reach = cfg.rpo
    pos = {node: i for i, node in enumerate(reach)}
    m = len(reach)

    def assemble(damping: float) -> np.ndarray:
        a = np.eye(m)
        for u in reach:
            row = probs[u]
            for v, p in row.items():
                if v in pos:
                    a[pos[v], pos[u]] -= p * damping
        return a

    rhs = np.zeros(m)
    rhs[pos[0]] = 1.0
    f: np.ndarray | None
    try:
        f = np.linalg.solve(assemble(1.0), rhs)
    except np.linalg.LinAlgError:
        f = None
    if f is None or not np.all(np.isfinite(f)) or float(f.min()) < -1e-9:
        # Inescapable cycle (probability-1 loop): damp every edge so the
        # spectral radius drops below 1 and the system becomes regular.
        f = np.linalg.solve(assemble(config.singular_damping), rhs)
    full = np.zeros(cfg.n)
    full[np.asarray(reach, dtype=np.intp)] = np.clip(f, 0.0, None)
    return full


def estimate_frequencies(
    module: Module, config: FrequencyConfig | None = None
) -> StaticProfile:
    """Estimate per-block execution frequencies for a sealed module."""
    config = config or FrequencyConfig()
    cfgs = build_cfgs(module)
    callgraph = CallGraph.build(module)

    local_probs: dict[str, list[dict[int, float]]] = {}
    local_freq: dict[str, np.ndarray] = {}
    for name, cfg in cfgs.items():
        probs = edge_probabilities(cfg, config)
        local_probs[name] = probs
        local_freq[name] = _solve_function(cfg, probs, config)

    # Expected calls to each callee per entry of the caller.
    calls_per_entry: dict[str, dict[str, float]] = {}
    for func in module.functions:
        per: dict[str, float] = {}
        freq = local_freq[func.name]
        for idx, block in enumerate(func.blocks):
            callee = block.terminator.callee()
            if callee is not None:
                per[callee] = per.get(callee, 0.0) + float(freq[idx])
        calls_per_entry[func.name] = per

    # Top-down propagation over the SCC condensation.
    cap = config.max_function_freq
    inflow: dict[str, float] = {f.name: 0.0 for f in module.functions}
    inflow[module.entry] = 1.0
    func_freq: dict[str, float] = {}
    for comp in callgraph.topo_sccs:
        members = set(comp)
        if len(comp) == 1 and not callgraph.is_recursive(comp[0]):
            name = comp[0]
            func_freq[name] = min(inflow[name], cap)
        else:
            # Damped fixpoint inside the recursive component: each round
            # pushes the previous round's new mass through internal call
            # edges, attenuated so arbitrary recursion converges.
            totals = {name: inflow[name] for name in comp}
            contrib = dict(totals)
            for _ in range(25):
                nxt: dict[str, float] = {}
                for caller in comp:
                    mass = contrib.get(caller, 0.0)
                    if mass <= 0.0:
                        continue
                    for callee, cpe in calls_per_entry[caller].items():
                        if callee in members:
                            nxt[callee] = nxt.get(callee, 0.0) + (
                                mass * cpe * config.recursion_damping
                            )
                if not nxt or max(nxt.values()) < 1e-9:
                    break
                for name, add in nxt.items():
                    totals[name] = min(totals[name] + add, cap)
                contrib = nxt
            for name in comp:
                func_freq[name] = min(totals[name], cap)
        # Push this component's outflow to downstream components.
        for caller in comp:
            entries = func_freq[caller]
            if entries <= 0.0:
                continue
            for callee, cpe in calls_per_entry[caller].items():
                if callee not in members:
                    inflow[callee] = min(inflow[callee] + entries * cpe, cap)

    block_freq = np.zeros(module.n_blocks)
    edge_prob: list[dict[int, float]] = [dict() for _ in range(module.n_blocks)]
    for func in module.functions:
        cfg = cfgs[func.name]
        entries = func_freq[func.name]
        freq = local_freq[func.name]
        for idx, block in enumerate(func.blocks):
            block_freq[block.gid] = entries * float(freq[idx])
            edge_prob[block.gid] = {
                func.blocks[v].gid: p for v, p in local_probs[func.name][idx].items()
            }

    return StaticProfile(
        module=module,
        config=config,
        block_freq=block_freq,
        func_freq=func_freq,
        edge_prob=edge_prob,
        cfgs=cfgs,
        callgraph=callgraph,
    )
