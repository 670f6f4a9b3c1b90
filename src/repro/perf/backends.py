"""Kernel backend registry: the ``numpy`` / ``scalar`` tiers.

Every hot analysis kernel — the stack-distance histogram
(:mod:`repro.cache.fastsim`), the affinity coverage sweep, and the TRG
build (:mod:`repro.core.fastanalysis`) — exists at two speed tiers
that are **bit-identical** by contract (pinned by the cross-backend
parity matrix in ``tests/perf/test_backends.py``; ``==``-level gates,
no tolerances):

``numpy``
    The production tier: the offline dominance-count sweep for
    histograms (no per-access Python loop at all) and the
    record-pass + NumPy-join analysis kernels.
``scalar``
    The in-tree oracles, unchanged: the textbook per-access Fenwick
    histogram (:func:`repro.cache.fastsim.fenwick_histogram`),
    :class:`repro.core.affinity.AffinityAnalysis`, and
    :func:`repro.core.trg.build_trg`.  Slow, obviously correct, and
    the reference the ``numpy`` tier is gated against.

Both tiers are always registered (:data:`TIERS`, default first).  The
tier is the only kernel-selection knob: callers override it per run via
``Lab(kernel_backend=...)``, ``OptimizerConfig.kernel_backend``, or the
``--kernel-backend`` CLI flag, and an oracle run is simply the
``scalar`` tier.  Worker processes resolve the parent's requested name
themselves, so a pool runs the tier its parent asked for.

Backend choice deliberately does **not** enter
:class:`repro.perf.memo.SimMemo` keys: results are identical by
contract, so a memo populated by one tier is a cache hit for the other
(pinned by the cross-backend memo-hit test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..cache.fastsim import (
    DistanceHistogram,
    fenwick_histogram,
    stack_distance_histogram,
)
from ..core.affinity import AffinityAnalysis
from ..core.fastanalysis import (
    AffinityCoverage,
    affinity_coverage,
    build_trg_fast,
    coverage_from_analysis,
)
from ..core.trg import TRG, build_trg

__all__ = ["KernelBackend", "TIERS", "resolve_backend"]

#: the registered tier names, the default first.
TIERS = ("numpy", "scalar")


@dataclass(frozen=True)
class KernelBackend:
    """One speed tier of the three analysis kernels.

    The three callables share their signatures across tiers and return
    the same types (:class:`DistanceHistogram`, :class:`AffinityCoverage`,
    :class:`~repro.core.trg.TRG`), so call sites thread a backend
    without caring which tier they got.
    """

    name: str
    histogram: Callable[[np.ndarray, int], DistanceHistogram]
    affinity: Callable[..., AffinityCoverage]
    trg: Callable[..., TRG]


def _scalar_affinity(
    trace: np.ndarray, w_max: int = 20, time_horizon: Optional[int] = None
) -> AffinityCoverage:
    analysis = AffinityAnalysis(trace, w_max=w_max, time_horizon=time_horizon)
    return coverage_from_analysis(analysis, time_horizon)


_SCALAR = KernelBackend(
    name="scalar",
    histogram=fenwick_histogram,
    affinity=_scalar_affinity,
    trg=build_trg,
)

_NUMPY = KernelBackend(
    name="numpy",
    histogram=stack_distance_histogram,
    affinity=affinity_coverage,
    trg=build_trg_fast,
)

_REGISTRY: dict[str, KernelBackend] = {b.name: b for b in (_NUMPY, _SCALAR)}


def resolve_backend(
    name: Optional[str] = None, *, strict: bool = True
) -> KernelBackend:
    """Look up a tier name (``None`` = the default, ``TIERS[0]``).

    An unknown name raises :class:`ValueError`.  ``strict`` is inert:
    both tiers are always registered, so there is nothing to degrade
    to; the keyword stays for callers that wrap this function.
    """
    backend = _REGISTRY.get(TIERS[0] if name is None else name)
    if backend is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: {', '.join(TIERS)}"
        )
    return backend
