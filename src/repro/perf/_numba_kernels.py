"""Numba-JIT'd kernel bodies for the ``compiled`` backend tier.

Each kernel here is the innermost event pass of one of the three
analysis kernels — the per-set Fenwick walk of the stack-distance
histogram, the bounded-MTF recency pass of the affinity sweep, and the
bounded-MTF conflict pass of the TRG build.  They are written in
strictly nopython-compatible style (flat arrays, index loops, no Python
objects) and decorated with ``numba.njit`` when numba is importable;
without numba the undecorated CPython versions remain importable and
correct, which is what lets the parity suite pin the *logic* of this
tier on every machine — the CI ``[compiled]`` job then proves the same
functions actually compile and win.

Everything around these passes — set partitioning, distance-0
stripping, the affinity join/aggregation, the TRG weight fold — is the
same NumPy code the ``numpy`` tier runs (see
:mod:`repro.cache.fastsim` and :mod:`repro.core.fastanalysis`), so the
tiers are structurally bit-identical by construction and differ only in
how the flat event buffers are produced.

``numba`` is an *optional* extra (``pip install .[compiled]``); this
module must import cleanly when it is absent.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover - the baked-in CI/container default
    _numba = None

#: True when the compiled tier can actually JIT (numba importable).
HAVE_NUMBA = _numba is not None

__all__ = [
    "HAVE_NUMBA",
    "histogram_compiled",
    "recency_records_compiled",
    "trg_records_compiled",
]


def _maybe_njit(fn):
    """JIT when numba is present; plain CPython function otherwise."""
    if _numba is None:
        return fn
    return _numba.njit(cache=True)(fn)


@_maybe_njit
def _fenwick_hist_pass(gids, starts, ends, n_distinct):
    """Per-set Fenwick stack-distance pass over global compact line ids.

    ``gids`` is the d0-stripped partitioned stream compacted to dense
    ids; ``starts``/``ends`` bound each non-empty set.  One shared
    last-position table serves every set (a line maps to exactly one
    set, so ids never collide across sets).  Returns the cold count and
    an untrimmed distance histogram.
    """
    n = gids.shape[0]
    hist = np.zeros(n + 1, dtype=np.int64)
    last = np.zeros(n_distinct, dtype=np.int64)
    cold = 0
    for s in range(starts.shape[0]):
        pos = starts[s]
        cnt = ends[s] - pos
        tree = np.zeros(cnt + 1, dtype=np.int64)
        for i in range(1, cnt + 1):
            lid = gids[pos + i - 1]
            p = last[lid]
            if p:
                d = np.int64(0)
                j = i - 1
                while j:
                    d += tree[j]
                    j -= j & -j
                j = p
                while j:
                    d -= tree[j]
                    j -= j & -j
                hist[d] += 1
                j = p
                while j <= cnt:
                    tree[j] -= 1
                    j += j & -j
            else:
                cold += 1
            j = i
            while j <= cnt:
                tree[j] += 1
                j += j & -j
            last[lid] = i
    return cold, hist


@_maybe_njit
def _recency_pass(ids, n_syms, K, with_pos):
    """Bounded-MTF recency pass (compiled mirror of
    ``repro.core.fastanalysis._recency_records``).

    The kept stack lives in two flat arrays (ids + last-access indices,
    MRU first, at most K+1 entries); every per-access operation is an
    O(K) shift.  Emits the same flat int32 buffers as the CPython pass:
    partner ids, per-access record counts, and (when ``with_pos``) the
    partners' last-access indices.
    """
    n = ids.shape[0]
    cap = K + 1
    in_top = np.zeros(n_syms, dtype=np.uint8)
    kept = np.empty(cap + 1, dtype=np.int32)
    kpos = np.empty(cap + 1, dtype=np.int32)
    m = 0
    partners = np.empty(n * K if K > 0 else 0, dtype=np.int32)
    positions = np.empty(partners.shape[0] if with_pos else 0, dtype=np.int32)
    counts = np.empty(n, dtype=np.int32)
    w = 0
    for now in range(n):
        z = ids[now]
        if in_top[z]:
            i = 0
            while kept[i] != z:
                i += 1
            while i < m - 1:
                kept[i] = kept[i + 1]
                kpos[i] = kpos[i + 1]
                i += 1
            m -= 1
        else:
            in_top[z] = 1
        e = K if m > K else m
        if with_pos:
            for j in range(e):
                partners[w] = kept[j]
                positions[w] = kpos[j]
                w += 1
        else:
            for j in range(e):
                partners[w] = kept[j]
                w += 1
        counts[now] = e
        j = m
        while j > 0:
            kept[j] = kept[j - 1]
            kpos[j] = kpos[j - 1]
            j -= 1
        kept[0] = z
        kpos[0] = now
        m += 1
        if m > cap:
            m -= 1
            in_top[kept[m]] = 0
    if with_pos:
        return partners[:w], counts, positions[:w]
    return partners[:w], counts, positions


@_maybe_njit
def _trg_pass(ids, n_syms, window_blocks):
    """Bounded-MTF conflict pass (compiled mirror of
    ``repro.core.fastanalysis._trg_records``).

    ``window_blocks == 0`` means unbounded.  The conflict log ``e_y``
    grows by amortized doubling — its final size is the number of
    (reuse, interleaved-id) records, exactly what the CPython pass's
    ``array('i')`` buffers hold.
    """
    n = ids.shape[0]
    cap = n_syms if window_blocks == 0 else min(n_syms, window_blocks + 1)
    stack = np.empty(cap + 1, dtype=np.int32)
    in_stack = np.zeros(n_syms, dtype=np.uint8)
    m = 0
    e_x = np.empty(n, dtype=np.int32)
    e_cnt = np.empty(n, dtype=np.int32)
    cap_y = 1024
    e_y = np.empty(cap_y, dtype=np.int32)
    nx = 0
    wy = 0
    for t in range(n):
        x = ids[t]
        if in_stack[x]:
            d = 0
            while stack[d] != x:
                d += 1
            if d:
                if wy + d > cap_y:
                    while cap_y < wy + d:
                        cap_y *= 2
                    grown = np.empty(cap_y, dtype=np.int32)
                    grown[:wy] = e_y[:wy]
                    e_y = grown
                e_x[nx] = x
                e_cnt[nx] = d
                nx += 1
                for j in range(d):
                    e_y[wy] = stack[j]
                    wy += 1
                j = d
                while j > 0:
                    stack[j] = stack[j - 1]
                    j -= 1
                stack[0] = x
        else:
            in_stack[x] = 1
            j = m
            while j > 0:
                stack[j] = stack[j - 1]
                j -= 1
            stack[0] = x
            m += 1
            if window_blocks != 0 and m > window_blocks:
                m -= 1
                in_stack[stack[m]] = 0
    return e_x[:nx], e_cnt[:nx], e_y[:wy]


# -- backend-contract wrappers (plain Python; see repro.perf.backends) -------


def histogram_compiled(part: np.ndarray, counts: np.ndarray) -> tuple[int, np.ndarray]:
    """A :func:`repro.cache.fastsim.build_histogram` construction."""
    from ..cache.fastsim import _set_bounds, _strip_d0, _trim

    part, counts, n_d0 = _strip_d0(part, counts)
    if part.shape[0] == 0:
        return 0, _trim([n_d0])
    gids = np.unique(part, return_inverse=True)[1]
    gids = np.ascontiguousarray(gids, dtype=np.int64)
    starts, ends, _ = _set_bounds(counts)
    cold, hist = _fenwick_hist_pass(
        gids,
        np.ascontiguousarray(starts, dtype=np.int64),
        np.ascontiguousarray(ends, dtype=np.int64),
        int(gids.max()) + 1,
    )
    hist[0] += n_d0
    return int(cold), _trim(hist)


def recency_records_compiled(
    inv: np.ndarray, n_syms: int, K: int, with_pos: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``records_fn`` for :func:`repro.core.fastanalysis.affinity_coverage`."""
    ids = np.ascontiguousarray(inv, dtype=np.int64)
    return _recency_pass(ids, n_syms, K, with_pos)


def trg_records_compiled(
    inv: np.ndarray, n_syms: int, window_blocks: Optional[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``records_fn`` for :func:`repro.core.fastanalysis.build_trg_fast`."""
    ids = np.ascontiguousarray(inv, dtype=np.int64)
    return _trg_pass(ids, n_syms, 0 if window_blocks is None else window_blocks)
