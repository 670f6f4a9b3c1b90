"""Batched k-way footprint composition for fleet-scale co-run matrices.

The paper's shared-cache prediction (Eq. 1/2) composes footprints by
addition: a group of co-runners misses together once
``sum_i fp_i(w) >= C``, and each member's co-run miss ratio is its own
growth rate at that shared fill time.  The scalar path
(:func:`repro.locality.hotl.shared_fill_time_scalar`) answers one
(group, capacity) question per call, re-summing every member curve
inside each binary-search probe — fine for a pair, hopeless for a fleet
matrix of hundreds of groups x a capacity sweep.

This module answers whole *stacks* of groups per call:

* :class:`CurveSet` holds the distinct per-(program, layout) curves —
  the unit of reuse.  A fleet run computes each curve **once** (usually
  through the :class:`~repro.perf.memo.SimMemo` curve tier) and then
  derives millions of co-run cells from the set; the ``cells`` counter
  feeds the ``fleet`` telemetry section and the CI gate asserting
  cells >> curve passes.
* :class:`ComposedGroup` is one group, or a ``(G, k)`` stack of groups,
  of those curves.  Its queries run one batched bisection over every
  group and capacity (:func:`repro.locality.hotl.shared_fill_times`) and
  gather the per-member growth rates
  (:func:`repro.locality.hotl.shared_growth`) — no per-group Python
  loop and no composed curve array.

Every number is **bit-identical** to the scalar oracles: each probe sums
the members' own ``fp`` values in member order (the same IEEE additions
the per-probe ``sum()`` performs), the bisection is the oracle's, and
growth rates are exact differences of the same ``fp`` arrays.
``tests/fleet/test_compose.py`` and the ``python -m repro.fleet bench``
gate pin this on randomized curve sets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..locality.footprint import FootprintCurve
from ..locality.hotl import shared_fill_times, shared_growth

__all__ = ["ComposedGroup", "CurveSet"]


class CurveSet:
    """The distinct footprint curves a fleet run composes from.

    One entry per (program, layout) model; every instance of that model
    and every group/capacity cell reuses the same curve object.
    ``cells`` accumulates the number of co-run matrix entries answered —
    the numerator of the cells-per-curve reuse ratio the fleet bench
    gate asserts.
    """

    def __init__(self, curves: Sequence[FootprintCurve]):
        self.curves: tuple[FootprintCurve, ...] = tuple(curves)
        if not self.curves:
            raise ValueError("need at least one footprint curve")
        #: co-run matrix cells answered from this set (one cell = one
        #: member's miss ratio at one capacity in one group).
        self.cells = 0

    def __len__(self) -> int:
        return len(self.curves)

    def group(self, members) -> "ComposedGroup":
        """The group of the curves at indices ``members`` — or, for a
        ``(G, k)`` stack of index rows, G groups queried together."""
        return ComposedGroup(self, members)


class ComposedGroup:
    """Co-runners of one shared cache — or a stack of G such groups of
    equal size — queried many times.

    ``members`` are indices into the owning :class:`CurveSet`: one
    group's ``k`` indices, or a ``(G, k)`` stack with one group per row.
    The same index may appear multiple times (several instances of one
    model on one socket).  Nothing is precomputed: every query answers
    all groups at once, and query results carry the stack's leading
    axis (``(G, ...)``) when ``members`` is a stack.
    """

    def __init__(self, curve_set: CurveSet, members):
        self.set = curve_set
        groups = np.asarray(members, dtype=np.int64)
        if groups.ndim not in (1, 2) or groups.shape[-1] == 0:
            raise ValueError("need at least one group member (k >= 1, G groups of k)")
        #: one group (``ndim == 1``) or a stack of groups (``ndim == 2``).
        self.members: np.ndarray = groups
        self._stack = np.atleast_2d(groups)

    def _unstack(self, out: np.ndarray) -> np.ndarray:
        return out if self.members.ndim == 2 else out[0]

    def fill_time(self, capacity: float):
        """Shared fill time at one capacity (per group for a stack);
        bit-identical to :func:`repro.locality.hotl.shared_fill_time`."""
        return self.fill_times(np.asarray([float(capacity)]))[..., 0].tolist()

    def fill_times(self, capacities: np.ndarray) -> np.ndarray:
        """Shared fill times for a whole capacity vector at once.

        Matches the scalar path probe for probe: capacities within 1e-9
        of the combined total footprint snap to it, capacities beyond
        the tolerance answer ``max_n + 1`` (no contention), everything
        else is the oracle's binary search against the same summed
        values (:func:`repro.locality.hotl.shared_fill_times`).
        """
        return self._unstack(shared_fill_times(self.set.curves, self._stack, capacities))

    def miss_ratio_matrix(self, capacities: np.ndarray) -> np.ndarray:
        """Per-member co-run miss ratios, shape ``(k, len(caps))`` — or
        ``(G, k, len(caps))`` for a stack.

        Row *i* is member *i*'s predicted miss ratio at each capacity:
        its own footprint growth rate at the shared fill time, exactly 0
        past its trace end (Eq. 1/2 applied member-wise).  Growth rates
        are gathered straight from each member's own ``fp`` array, so
        every entry equals the scalar
        :func:`repro.locality.hotl.shared_miss_ratios` value bit for
        bit.  Each entry counts as one cell in the owning set.
        """
        curves = self.set.curves
        ws = shared_fill_times(curves, self._stack, capacities)
        out = shared_growth(curves, self._stack, ws)
        self.set.cells += int(out.size)
        return self._unstack(out)

    def miss_ratios(self, capacity: float) -> list:
        """Scalar-capacity convenience: one column of the matrix (a list
        per group for a stack)."""
        return self.miss_ratio_matrix([float(capacity)])[..., 0].tolist()
