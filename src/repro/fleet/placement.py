"""Placement policies: bin-packing program instances onto shared caches.

A fleet run places N program instances onto M sockets; every socket is
one shared cache, and the instances on it co-run under the paper's
composition model.  Policies come in two families:

* **layout-oblivious** — ``round-robin`` and ``random`` ignore the
  programs' cache behavior entirely (what a scheduler without footprint
  information does);
* **layout-aware** — ``worst-fit`` balances footprint *pressure* (the
  cache space a program actually claims at capacity) across sockets,
  and ``score-aware`` additionally separates aggressive programs from
  sensitive ones using the defensiveness/politeness decomposition: a
  program's *aggressiveness* is the pressure it exerts on cache peers,
  its *sensitivity* is how much its miss ratio grows when effective
  capacity halves.  Greedily assigning each instance to the socket
  where ``aggr_i * sum(sens) + sens_i * sum(aggr)`` is smallest keeps
  bullies and victims apart — O(N·M) scalar work, no compositions
  during packing.

All policies are deterministic for a given seed and instance list:
tie-breaks go to the lowest socket index, and scoring sorts break ties
on the instance's (name, layout, index) key, so placements — and the
journals derived from them — are reproducible across dict-order or
input-order changes.

:func:`evaluate_placement` scores any placement with the composition
matrix (:mod:`repro.fleet.compose`) and the
:mod:`repro.machine.timing` cost model: total predicted misses across
the fleet, and the makespan of the slowest socket.
:func:`matched_pairs` bridges to the exact/greedy matching machinery in
:mod:`repro.machine.scheduler` for pair-sized fleets, using composed
misses as the pair cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..locality.hotl import miss_ratio
from ..machine.scheduler import Pairing, best_pairing, greedy_pairing
from ..machine.timing import TimingParams
from .compose import CurveSet

__all__ = [
    "AWARE_POLICIES",
    "OBLIVIOUS_POLICIES",
    "POLICIES",
    "Instance",
    "Placement",
    "evaluate_placement",
    "matched_pairs",
    "random_place",
    "round_robin",
    "score_aware",
    "worst_fit",
]


@dataclass(frozen=True)
class Instance:
    """One program instance to place: a (program, layout) model replica.

    ``curve_id`` indexes the owning :class:`~repro.fleet.compose.CurveSet`
    — thousands of instances of the same model share one curve.
    ``weight`` is the instance's work in line accesses (its trace
    length); misses scale with it, so two replicas of a model cost twice
    one replica.
    """

    name: str
    layout: str
    curve_id: int
    weight: float

    @property
    def key(self) -> tuple[str, str]:
        return (self.name, self.layout)


@dataclass(frozen=True)
class Placement:
    """One policy's scored assignment of instances to sockets.

    ``groups[s]`` lists the instance indices on socket ``s`` (possibly
    empty).  ``total_misses`` is the fleet-wide predicted co-run miss
    count; ``makespan`` the cycle cost of the slowest socket under the
    lab's timing model.
    """

    policy: str
    groups: tuple[tuple[int, ...], ...]
    total_misses: float
    makespan: float


def _pressure(curve_set: CurveSet, capacity: float):
    """Per-curve footprint demand at ``capacity``: the space the program
    holds once the cache fills (its whole footprint if it fits)."""

    def demand(curve_id: int) -> float:
        curve = curve_set.curves[curve_id]
        w = min(curve.fill_time(capacity), curve.n)
        return float(curve(w))

    return demand


def round_robin(
    instances: Sequence[Instance],
    n_sockets: int,
    *,
    curve_set: CurveSet,
    capacity: float,
    seed: int = 0,
) -> list[list[int]]:
    """Layout-oblivious: deal instances to sockets in input order."""
    groups: list[list[int]] = [[] for _ in range(n_sockets)]
    for i in range(len(instances)):
        groups[i % n_sockets].append(i)
    return groups


def random_place(
    instances: Sequence[Instance],
    n_sockets: int,
    *,
    curve_set: CurveSet,
    capacity: float,
    seed: int = 0,
) -> list[list[int]]:
    """Layout-oblivious: deal a seeded random permutation round-robin."""
    rng = np.random.default_rng(seed)
    groups: list[list[int]] = [[] for _ in range(n_sockets)]
    for slot, i in enumerate(rng.permutation(len(instances))):
        groups[slot % n_sockets].append(int(i))
    for g in groups:
        g.sort()
    return groups


def worst_fit(
    instances: Sequence[Instance],
    n_sockets: int,
    *,
    curve_set: CurveSet,
    capacity: float,
    seed: int = 0,
) -> list[list[int]]:
    """Layout-aware: balance footprint pressure across sockets.

    Classic worst-fit decreasing: sort instances by descending pressure
    and put each on the currently least-loaded socket, so no socket
    accumulates a pile of large-footprint programs.
    """
    demand = _pressure(curve_set, capacity)
    order = sorted(
        range(len(instances)),
        key=lambda i: (-demand(instances[i].curve_id), instances[i].key, i),
    )
    groups: list[list[int]] = [[] for _ in range(n_sockets)]
    load = [0.0] * n_sockets
    for i in order:
        s = min(range(n_sockets), key=lambda s: (load[s], s))
        groups[s].append(i)
        load[s] += demand(instances[i].curve_id)
    for g in groups:
        g.sort()
    return groups


def score_aware(
    instances: Sequence[Instance],
    n_sockets: int,
    *,
    curve_set: CurveSet,
    capacity: float,
    seed: int = 0,
) -> list[list[int]]:
    """Layout-aware: separate aggressive programs from sensitive ones.

    The paper's politeness/defensiveness decomposition, as scheduling
    scores: an instance *harms* a socket in proportion to its
    aggressiveness times the residents' summed sensitivity, and *is
    harmed* in proportion to its sensitivity times their summed
    aggressiveness.  An overflow term — the footprint the socket would
    exceed capacity by — keeps mutually-insensitive aggressive programs
    from all stacking onto one cache (their pairwise scores are zero,
    but an overflowing socket thrashes regardless of scores).  Greedy
    assignment (most aggressive first) to the least-harmful socket,
    load as tie-break.
    """
    demand = _pressure(curve_set, capacity)
    n = len(curve_set.curves)
    aggr = [demand(c) for c in range(n)]
    # Sensitivity: miss-ratio growth when a peer claims half the cache.
    sens = [
        max(
            0.0,
            miss_ratio(curve_set.curves[c], capacity / 2.0)
            - miss_ratio(curve_set.curves[c], capacity),
        )
        for c in range(n)
    ]
    order = sorted(
        range(len(instances)),
        key=lambda i: (-aggr[instances[i].curve_id], instances[i].key, i),
    )
    groups: list[list[int]] = [[] for _ in range(n_sockets)]
    sock_aggr = [0.0] * n_sockets
    sock_sens = [0.0] * n_sockets
    load = [0.0] * n_sockets
    for i in order:
        c = instances[i].curve_id
        s = min(
            range(n_sockets),
            key=lambda s: (
                aggr[c] * sock_sens[s]
                + sens[c] * sock_aggr[s]
                + max(0.0, load[s] + aggr[c] - capacity),
                load[s],
                s,
            ),
        )
        groups[s].append(i)
        sock_aggr[s] += aggr[c]
        sock_sens[s] += sens[c]
        load[s] += aggr[c]
    for g in groups:
        g.sort()
    return groups


#: policy registry: name -> callable with the uniform signature.
POLICIES: dict[str, Callable[..., list[list[int]]]] = {
    "round-robin": round_robin,
    "random": random_place,
    "worst-fit": worst_fit,
    "score-aware": score_aware,
}

#: the layout-oblivious family (the fleet gate's losing side).
OBLIVIOUS_POLICIES = ("round-robin", "random")

#: the layout-aware family (must beat every oblivious policy's misses).
AWARE_POLICIES = ("worst-fit", "score-aware")


def evaluate_placement(
    curve_set: CurveSet,
    instances: Sequence[Instance],
    groups: Sequence[Sequence[int]],
    capacity: float,
    timing: Optional[TimingParams] = None,
    policy: str = "?",
) -> Placement:
    """Score a placement with the composition model.

    Every non-empty socket's co-run miss ratios at ``capacity`` come
    from one batched composition query per socket size; an instance's
    predicted misses are ``ratio * weight``.  Socket cycle cost follows the
    :mod:`repro.machine.timing` model (base CPI on the instance's work
    plus the miss penalty on its predicted misses); the makespan is the
    slowest socket.
    """
    timing = timing if timing is not None else TimingParams()
    by_size: dict[int, list[int]] = {}
    for s, members in enumerate(groups):
        if members:
            by_size.setdefault(len(members), []).append(s)
    ratios: dict[int, list[float]] = {}
    for sockets in by_size.values():
        stack = [[instances[i].curve_id for i in groups[s]] for s in sockets]
        grid = curve_set.group(stack).miss_ratio_matrix([capacity])[:, :, 0]
        ratios.update(zip(sockets, grid.tolist()))
    total_misses = 0.0
    makespan = 0.0
    for s, members in enumerate(groups):
        if not members:
            continue
        socket_cycles = 0.0
        for idx, ratio in zip(members, ratios[s]):
            inst = instances[idx]
            misses = ratio * inst.weight
            total_misses += misses
            cycles = inst.weight * timing.base_cpi + misses * timing.icache_miss_penalty
            socket_cycles = max(socket_cycles, cycles)
        makespan = max(makespan, socket_cycles)
    return Placement(
        policy=policy,
        groups=tuple(tuple(int(i) for i in members) for members in groups),
        total_misses=total_misses,
        makespan=makespan,
    )


def matched_pairs(
    curve_set: CurveSet,
    instances: Sequence[Instance],
    capacity: float,
    *,
    exact: bool = True,
) -> Pairing:
    """Pair an even instance list via :mod:`repro.machine.scheduler`.

    The pair cost is the composed pair's total predicted misses — the
    same objective :func:`evaluate_placement` totals — so the exact
    matcher gives the certified-optimal two-per-socket placement to
    cross-check the greedy policies against on small fleets.  Every
    distinct pair is composed once, in one batched query, before the
    matcher runs.
    """
    items = [str(i) for i in range(len(instances))]
    pairs = list(itertools.combinations(range(len(instances)), 2))
    cost: dict[tuple[str, str], float] = {}
    if pairs:
        stack = [[instances[a].curve_id, instances[b].curve_id] for a, b in pairs]
        grid = curve_set.group(stack).miss_ratio_matrix([capacity])[:, :, 0]
        for (a, b), (ra, rb) in zip(pairs, grid.tolist()):
            cost[(str(a), str(b))] = ra * instances[a].weight + rb * instances[b].weight

    def pair_cost(a: str, b: str) -> float:
        # A two-member probe sum and a two-term cost are the same floats
        # in either order, so (b, a) answers what (a, b) would.
        return cost[(a, b)] if (a, b) in cost else cost[(b, a)]

    match = best_pairing if exact else greedy_pairing
    return match(items, pair_cost)
