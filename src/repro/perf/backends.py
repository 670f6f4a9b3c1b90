"""Kernel backend registry: ``scalar`` / ``numpy`` / ``compiled`` tiers.

Every hot analysis kernel — the stack-distance histogram
(:mod:`repro.cache.fastsim`), the affinity coverage sweep, and the TRG
build (:mod:`repro.core.fastanalysis`) — exists at three speed tiers
that are **bit-identical** by contract (pinned by the cross-backend
parity matrix in ``tests/perf/test_backends.py``; ``==``-level gates,
no tolerances):

``scalar``
    The in-tree oracles, unchanged: the textbook per-access Fenwick
    histogram (:func:`repro.cache.fastsim.fenwick_histogram`),
    :class:`repro.core.affinity.AffinityAnalysis`, and
    :func:`repro.core.trg.build_trg`.  Slow, obviously correct, and
    the reference every faster tier is gated against.
``numpy``
    The batch-vectorized paths: the offline dominance-count sweep for
    histograms (no per-access Python loop at all) and the
    record-pass + NumPy-join analysis kernels.  Always available
    (NumPy is a hard dependency).
``compiled``
    The same kernels with their innermost event passes JIT'd by numba
    (:mod:`repro.perf._numba_kernels`).  Auto-detected at import;
    declared as the ``[compiled]`` optional extra in ``pyproject.toml``
    and silently absent when numba is not installed.

Resolution order is ``compiled -> numpy -> scalar``: :func:`resolve`
with no name returns the fastest available tier.  The tier is the only
kernel-selection knob: callers override it per run via
``Lab(kernel_backend=...)``, ``OptimizerConfig.kernel_backend``, or the
``--kernel-backend`` CLI flag, and an oracle run is simply the
``scalar`` tier.  Worker processes resolve their *own* backend from the requested name with ``strict=False`` — a parent
that resolved ``compiled`` can hand work to a worker without numba and
the worker degrades to ``numpy`` with identical results (that is the
point of the bit-identical contract).

Backend choice deliberately does **not** enter
:class:`repro.perf.memo.SimMemo` keys: results are identical by
contract, so a memo populated by one tier is a cache hit for every
other (pinned by the cross-backend memo-hit test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..cache.fastsim import (
    DistanceHistogram,
    build_histogram,
    fenwick_histogram,
    stack_distance_histogram,
)
from ..core.fastanalysis import (
    AffinityCoverage,
    affinity_coverage,
    build_trg_fast,
    coverage_from_analysis,
)
from . import _numba_kernels

__all__ = [
    "KernelBackend",
    "RESOLUTION_ORDER",
    "available_backends",
    "default_backend",
    "resolve_backend",
]

#: preference order of the tiers; resolution picks the first available.
RESOLUTION_ORDER = ("compiled", "numpy", "scalar")


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
    trg: Callable[..., object]


def _scalar_affinity(
    trace: np.ndarray, w_max: int = 20, time_horizon: Optional[int] = None
) -> AffinityCoverage:
    from ..core.affinity import AffinityAnalysis

    analysis = AffinityAnalysis(trace, w_max=w_max, time_horizon=time_horizon)
    return coverage_from_analysis(analysis, time_horizon)


def _scalar_trg(trace: np.ndarray, window_blocks: Optional[int] = None):
    from ..core.trg import build_trg

    return build_trg(trace, window_blocks)


def _compiled_histogram(lines: np.ndarray, n_sets: int) -> DistanceHistogram:
    return build_histogram(lines, n_sets, _numba_kernels.histogram_compiled)


def _compiled_affinity(
    trace: np.ndarray, w_max: int = 20, time_horizon: Optional[int] = None
) -> AffinityCoverage:
    return affinity_coverage(
        trace,
        w_max,
        time_horizon,
        records_fn=_numba_kernels.recency_records_compiled,
    )


def _compiled_trg(trace: np.ndarray, window_blocks: Optional[int] = None):
    return build_trg_fast(
        trace, window_blocks, records_fn=_numba_kernels.trg_records_compiled
    )


_SCALAR = KernelBackend(
    name="scalar",
    histogram=fenwick_histogram,
    affinity=_scalar_affinity,
    trg=_scalar_trg,
)

_NUMPY = KernelBackend(
    name="numpy",
    histogram=stack_distance_histogram,
    affinity=affinity_coverage,
    trg=build_trg_fast,
)

_COMPILED = KernelBackend(
    name="compiled",
    histogram=_compiled_histogram,
    affinity=_compiled_affinity,
    trg=_compiled_trg,
)

_REGISTRY: dict[str, KernelBackend] = {"scalar": _SCALAR, "numpy": _NUMPY}
if _numba_kernels.HAVE_NUMBA:  # pragma: no cover - needs the [compiled] extra
    _REGISTRY["compiled"] = _COMPILED


def available_backends() -> tuple[str, ...]:
    """Registered tier names, fastest first."""
    return tuple(n for n in RESOLUTION_ORDER if n in _REGISTRY)


def default_backend() -> str:
    """The tier :func:`resolve` picks when no name is requested."""
    return available_backends()[0]


def resolve_backend(
    name: Optional[str] = None, *, strict: bool = True
) -> KernelBackend:
    """Resolve a requested tier name to a :class:`KernelBackend`.

    ``None`` means "fastest available" (``compiled`` when numba is
    importable, else ``numpy``).  A known-but-unavailable name —
    ``compiled`` without numba — raises :class:`ValueError` under
    ``strict=True``; with ``strict=False`` it degrades down
    :data:`RESOLUTION_ORDER` instead, which is how worker processes
    inherit a parent's request without sharing its environment.  An
    unknown name always raises.
    """
    if name is None:
        return _REGISTRY[default_backend()]
    if name not in RESOLUTION_ORDER:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: {', '.join(RESOLUTION_ORDER)}"
        )
    backend = _REGISTRY.get(name)
    if backend is not None:
        return backend
    if strict:
        raise ValueError(
            f"kernel backend {name!r} is not available in this environment "
            f"(install the [compiled] extra); available: "
            f"{', '.join(available_backends())}"
        )
    start = RESOLUTION_ORDER.index(name)
    for fallback in RESOLUTION_ORDER[start + 1 :]:
        if fallback in _REGISTRY:
            return _REGISTRY[fallback]
    raise ValueError(f"no kernel backend available for {name!r}")  # pragma: no cover
