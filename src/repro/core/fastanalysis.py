"""Vectorized analysis kernels for the two locality models.

The scalar implementations — :class:`~repro.core.affinity.AffinityAnalysis`
(the one-pass w-window stack simulation of paper Sec. II-B) and
:func:`~repro.core.trg.build_trg` (the Gloy-Smith 2C-window graph of
Sec. II-C) — walk the trace one access at a time with per-access Python
object churn: `_Pending` records and dict walks on the affinity side, a
linked-list stack and dict-of-tuples accumulation on the TRG side.  On
realistic traces the layout build dominates end-to-end wall time.

This module re-derives both analyses as *batched* kernels in the same
mold as :mod:`repro.cache.fastsim`: a single lean Python pass records
compact event logs (flat int lists, a reusable boundary buffer, a
move-to-front list indexed at C speed), and everything per-pair — minimal
footprints, coverage histograms, edge weights — is aggregated at the end
with NumPy sort/unique passes.  The scalar implementations stay as the
oracles; the parity matrix in ``tests/core/test_fastanalysis.py`` pins
the kernels **bit-identical** (same coverage histograms, same affine-pair
sets, same TRG edge weights and node order) across trace shapes, window
ranges, horizons, and stack capacities.

Why the affinity kernel needs no pending queue: over a trimmed trace a
pending occurrence's *time is its trace index*, so the pending set is
always the contiguous index range ``[head, now)`` — a single advancing
head pointer replaces the deque.  Finalization ("more than ``w_max``
distinct blocks accessed since") advances ``head`` past the last-access
time of the ``w_max``-th most recent *other* block, which the per-access
boundary walk has already produced — the scalar version's separate
``_kth_most_recent`` walk disappears.  Forward credits are emitted as
``(partner, lo, hi)`` ranges plus a flat footprint list; backward records
as a flat partner list with per-access counts.  The final NumPy
aggregation takes the per-(occurrence, partner) minimum footprint with
one ``lexsort`` and folds the per-pair histograms with one ``unique``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..trace.trim import trim
from .affinity import AffinityAnalysis, in_pair_order, read_only
from .trg import TRG

__all__ = [
    "AffinityCoverage",
    "affinity_coverage",
    "analysis_from_coverage",
    "build_trg_fast",
    "coverage_from_analysis",
]


@dataclass(eq=False)
class AffinityCoverage:
    """Everything one affinity pass derives from a trace.

    The content-addressed analysis artifact: per-pair minimal-footprint
    histograms plus the occurrence bookkeeping, independent of the
    ``coverage`` query threshold (which :meth:`AffinityAnalysis.is_affine`
    applies at lookup time).  One artifact therefore answers every
    coverage setting of its ``(stream, w_max, time_horizon)`` cell,
    which is what makes it worth memoizing.
    """

    w_max: int
    time_horizon: Optional[int]
    #: occurrence count per symbol.
    n_occ: dict[int, int]
    #: first trimmed-trace index per symbol.
    first_occ: dict[int, int]
    #: exactly ``AffinityAnalysis.pairs`` and ``AffinityAnalysis.cov``:
    #: the ``(P, 2)`` pair table and ``(P, w_max + 1)`` histogram matrix.
    pairs: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.pairs = read_only(self.pairs).reshape(-1, 2)
        self.cov = read_only(self.cov).reshape(-1, self.w_max + 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffinityCoverage):
            return NotImplemented
        scalars = ("w_max", "time_horizon", "n_occ", "first_occ")
        return all(getattr(self, f) == getattr(other, f) for f in scalars) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in ("pairs", "cov")
        )

    #: the entry kind, and what :meth:`to_arrays` emits: name -> (dtype
    #: kind, shape), with ``None`` for an axis of any length.
    KIND = "affinity"
    ARRAYS = {
        "kind": ("U", ()),
        "w_max": ("i", ()),
        "time_horizon": ("i", (None,)),
        "pairs": ("i", (None, 2)),
        "cov": ("i", (None, None)),
        "n_occ": ("i", (None, 2)),
        "first_occ": ("i", (None, 2)),
    }

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Named arrays (memo entries): the pair table and matrix as they
        are, the occurrence tables as ``(K, 2)`` rows in dict order, and
        ``time_horizon`` as a length-0 (``None``) or length-1 array."""
        horizon = [] if self.time_horizon is None else [self.time_horizon]
        return {
            "kind": np.array(self.KIND),
            "w_max": np.array(self.w_max, dtype=np.int64),
            "time_horizon": np.array(horizon, dtype=np.int64),
            "pairs": self.pairs,
            "cov": self.cov,
            "n_occ": _rows(self.n_occ),
            "first_occ": _rows(self.first_occ),
        }

    @classmethod
    def from_arrays(cls, raw: dict) -> "AffinityCoverage":
        """Inverse of :meth:`to_arrays`, which only validates: the pair
        table and matrix become the artifact's (read-only).  Raises
        ``ValueError`` on malformed payloads (pairs out of ``(x, y)``
        order or repeated, shapes that disagree) so memo corruption
        degrades to recomputation."""
        if str(raw["kind"]) != cls.KIND:
            raise ValueError(f"not an affinity payload: kind={str(raw['kind'])!r}")
        w_max = int(raw["w_max"])
        horizon = raw["time_horizon"].tolist()
        pairs, hists = raw["pairs"], raw["cov"]
        if len(horizon) > 1:
            raise ValueError(f"time_horizon has {len(horizon)} values")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pairs shape {pairs.shape} is not (P, 2)")
        if not in_pair_order(pairs):
            raise ValueError("pairs are not strictly increasing in (x, y) order")
        if hists.shape != (pairs.shape[0], w_max + 1):
            raise ValueError(
                f"histogram shape {hists.shape} != ({pairs.shape[0]}, {w_max + 1})"
            )
        return cls(
            w_max=w_max,
            time_horizon=horizon[0] if horizon else None,
            n_occ=_mapping(raw["n_occ"]),
            first_occ=_mapping(raw["first_occ"]),
            pairs=pairs,
            cov=hists,
        )


def _rows(table: dict[int, int]) -> np.ndarray:
    """A symbol -> int table as ``(K, 2)`` rows, in dict order."""
    return np.array(list(table.items()), dtype=np.int64).reshape(-1, 2)


def _mapping(rows: np.ndarray) -> dict[int, int]:
    """Inverse of :func:`_rows`."""
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError(f"table shape {rows.shape} is not (K, 2)")
    return dict(rows.tolist())


def coverage_from_analysis(
    analysis: AffinityAnalysis, time_horizon: Optional[int] = None
) -> AffinityCoverage:
    """The coverage artifact of a scalar analysis (the ``scalar`` tier),
    sharing its read-only pair table and matrix."""
    return AffinityCoverage(
        w_max=analysis.w_max,
        time_horizon=time_horizon,
        n_occ=analysis._n_occ,
        first_occ=analysis._first_occ,
        pairs=analysis.pairs,
        cov=analysis.cov,
    )


def analysis_from_coverage(
    trace: np.ndarray, covg: AffinityCoverage, coverage: float = 1.0
) -> AffinityAnalysis:
    """Wrap a kernel- or memo-produced artifact as an
    :class:`AffinityAnalysis`, sharing all query/hierarchy code paths."""
    return AffinityAnalysis.from_precomputed(trace, covg, coverage)


#: entry caps for the linear (sort-free) aggregation path: the join
#: table holds one byte per (trace index, symbol) cell and the pair-row
#: table one int32 per symbol pair.  Above either cap — or when
#: footprints would not fit the int8 join table — the kernel falls back
#: to an equivalent sort-based merge (still exact, just slower).
_JOIN_TABLE_MAX = 1 << 28
_PAIR_TABLE_MAX = 1 << 24


def _recency_records(
    ids: list[int], n_syms: int, K: int, with_pos: bool
) -> tuple["array", "array", "array"]:
    """One move-to-front pass emitting, per access, the ``K`` most
    recently seen *other* symbols in recency order.

    Returns ``(partners, counts, positions)`` as ``array('i')`` buffers
    (NumPy reads them zero-copy): flat partner ids, the per-access
    record counts, and (when ``with_pos``) the partners' last-access
    indices, parallel to ``partners``.  The partner at slice offset k
    has stack depth k+2 (z itself is depth 1), i.e. the window from its
    last access to ``now`` spans k+2 distinct symbols.

    This is the whole affinity pass: run forward it yields the backward
    coverage records; run on the *reversed* trace it yields the forward
    credits (the reversed stack keeps each symbol's first upcoming
    occurrence, which is exactly the minimal forward window).

    The stack is kept *bounded* at K+1 entries: in a move-to-front list
    without evictions a symbol's depth never decreases until it is
    re-accessed, so anything that sinks past the window can never
    resurface into the top K and is simply dropped.  Every per-access
    operation is then O(K) C-level list machinery — a 20-element
    ``index``/``del``/``insert``/slice — with no per-record Python work.
    """
    cap = K + 1
    in_top = bytearray(n_syms)
    kept: list[int] = []  # compact ids, MRU first, top cap entries
    kpos: list[int] = []  # their last-access indices, parallel
    partners = array("i")
    counts = array("i")
    positions = array("i")
    emit = partners.extend
    emit_pos = positions.extend
    emit_cnt = counts.append
    if with_pos:
        for now, z in enumerate(ids):
            if in_top[z]:
                i = kept.index(z)
                del kept[i]
                del kpos[i]
            else:
                in_top[z] = 1
            m = len(kept)
            if m > K:
                emit(kept[:K])
                emit_pos(kpos[:K])
                emit_cnt(K)
            else:
                emit(kept)
                emit_pos(kpos)
                emit_cnt(m)
            kept.insert(0, z)
            kpos.insert(0, now)
            if len(kept) > cap:
                in_top[kept.pop()] = 0
                kpos.pop()
    else:
        for z in ids:
            if in_top[z]:
                del kept[kept.index(z)]
            else:
                in_top[z] = 1
            m = len(kept)
            if m > K:
                emit(kept[:K])
                emit_cnt(K)
            else:
                emit(kept)
                emit_cnt(m)
            kept.insert(0, z)
            if len(kept) > cap:
                in_top[kept.pop()] = 0
    return partners, counts, positions


def affinity_coverage(
    trace: np.ndarray,
    w_max: int = 20,
    time_horizon: Optional[int] = None,
) -> AffinityCoverage:
    """Two batched passes computing the full 2..w_max coverage sweep.

    Bit-identical to ``AffinityAnalysis(trace, w_max, time_horizon=...)``
    (pinned by the parity suite), via a symmetry the scalar one-pass
    algorithm obscures: an occurrence's minimal *backward* window to
    partner y ends at y's most recent past occurrence with footprint =
    y's recency rank, and its minimal *forward* window ends at y's first
    upcoming occurrence — which is y's recency rank *on the reversed
    trace*.  The scalar version's pending queue, forward crediting, and
    finalization cutoffs exist only to discover the forward windows
    online; offline, one :func:`_recency_records` pass over the trace and
    one over its reversal produce every (occurrence, partner, footprint)
    record, and the w_max finalization horizon is exactly the fp <= w_max
    truncation both passes already apply.  A finite ``time_horizon``
    additionally drops forward credits whose arrival is more than
    ``time_horizon + 1`` steps after the occurrence — a vectorized filter
    here.  The per-(occurrence, partner) minimum and the per-pair
    histogram fold are NumPy sort/unique passes.
    """
    if w_max < 1:
        raise ValueError("w_max must be >= 1")
    t = trim(np.asarray(trace))
    n = int(t.shape[0])
    syms, first_idx, inv = np.unique(t, return_index=True, return_inverse=True)
    n_syms = int(syms.shape[0])
    counts = np.bincount(inv, minlength=n_syms)
    n_occ = {int(s): int(c) for s, c in zip(syms, counts)}
    first_occ = {int(s): int(i) for s, i in zip(syms, first_idx)}

    K = w_max - 1
    seq = inv.tolist()
    bwd = _recency_records(seq, n_syms, K, False)
    fwd = _recency_records(seq[::-1], n_syms, K, time_horizon is not None)

    # The linear join path keeps everything in int32 and never sorts; it
    # applies whenever its scratch tables fit (always at paper scale).
    fast = (
        n * n_syms <= _JOIN_TABLE_MAX
        and n_syms * n_syms <= _PAIR_TABLE_MAX
        and w_max < 127
    )
    dt = np.int32 if fast else np.int64
    inv_dt = inv.astype(dt)
    mult = w_max + 1

    def expand(pass_out, occ_base, x_syms):
        """Per record: (occ*n_syms+partner) key, (x*n_syms+partner) pair
        code, and the footprint — all implicit in the slice layout."""
        part = np.frombuffer(pass_out[0], dtype=np.int32).astype(dt, copy=False)
        cnt = np.frombuffer(pass_out[1], dtype=np.int32)
        key = np.repeat(occ_base * n_syms, cnt) + part
        pcode = np.repeat(x_syms * n_syms, cnt) + part
        starts = np.cumsum(cnt, dtype=dt) - cnt
        d = np.arange(part.shape[0], dtype=dt) - np.repeat(starts, cnt) + 2
        return key, pcode, d

    key_b, pcode_b, d_b = expand(bwd, np.arange(n, dtype=dt), inv_dt)
    # The reversed pass indexes from the trace end; map back.
    key_f, pcode_f, d_f = expand(
        fwd, np.arange(n - 1, -1, -1, dtype=dt), inv_dt[::-1]
    )
    if time_horizon is not None and key_f.shape[0]:
        # Forward credits only reach occurrences still pending when the
        # partner arrives: the arrival (original index n-1-pos) must be
        # within time_horizon + 1 of the occurrence.
        cnt_f = np.frombuffer(fwd[1], dtype=np.int32)
        occ_f = np.repeat(np.arange(n - 1, -1, -1, dtype=dt), cnt_f)
        arrival = n - 1 - np.frombuffer(fwd[2], dtype=np.int32).astype(
            dt, copy=False
        )
        keep = arrival - occ_f <= time_horizon + 1
        key_f, pcode_f, d_f = key_f[keep], pcode_f[keep], d_f[keep]

    if fast:
        # Merge the two passes without sorting: backward (occ, partner)
        # keys are unique within their pass (one record per partner per
        # access), so a scatter into a byte table and one gather give
        # each forward record its backward counterpart.  A forward
        # record survives where there is none or it is strictly smaller
        # (ties go backward); a surviving forward record with a larger
        # backward counterpart cancels it.
        tab = np.zeros(n * n_syms, dtype=np.int8)
        tab[key_b] = d_b.astype(np.int8)
        dm = tab[key_f].astype(np.int32)
        keep_f = (dm == 0) | (d_f < dm)
        sub = keep_f & (dm != 0)
        pused = np.zeros(n_syms * n_syms, dtype=bool)
        pused[pcode_b] = True
        pused[pcode_f[keep_f]] = True
        rowmap = np.cumsum(pused, dtype=np.int32)
        rowmap -= 1
        n_pairs = int(np.count_nonzero(pused))
        pf_keep = rowmap[pcode_f[keep_f]].astype(np.int64)
        hist = np.bincount(
            rowmap[pcode_b].astype(np.int64) * mult + d_b,
            minlength=n_pairs * mult,
        )
        hist += np.bincount(pf_keep * mult + d_f[keep_f], minlength=n_pairs * mult)
        hist -= np.bincount(
            rowmap[pcode_f[sub]].astype(np.int64) * mult + dm[sub],
            minlength=n_pairs * mult,
        )
        block = hist.reshape(n_pairs, mult)
        pair_codes = np.nonzero(pused)[0]
    else:
        # Sort-based merge: minimal footprint per (occ, partner) = first
        # entry of each key run after a (key, d) sort; per-pair
        # histograms from one unique over (pair, d) codes.
        key = np.concatenate((key_b, key_f))
        pcode = np.concatenate((pcode_b, pcode_f))
        d = np.concatenate((d_b, d_f))
        order = np.lexsort((d, key))
        key_s = key[order]
        first = np.diff(key_s, prepend=key_s[:1] - 1) != 0
        code = pcode[order][first] * mult + d[order][first]
        codes, cnt = np.unique(code, return_counts=True)
        pair_codes, row = np.unique(codes // mult, return_inverse=True)
        block = np.zeros((pair_codes.shape[0], mult), dtype=np.int64)
        block[row, codes % mult] = cnt

    # Pair codes ascend, and ``syms`` does: the rows come out in (x, y) order.
    pairs = np.stack((syms[pair_codes // n_syms], syms[pair_codes % n_syms]), axis=1)
    return AffinityCoverage(w_max, time_horizon, n_occ, first_occ, pairs, block)


def _trg_records(
    inv: np.ndarray, n_syms: int, window_blocks: Optional[int]
) -> tuple["array", "array", "array"]:
    """The TRG event pass: one bounded move-to-front walk emitting, per
    reuse at depth d, the reused id, the depth, and the d interleaved
    ids as flat int32 buffers (``(e_x, e_cnt, e_y)``)."""
    stack: list[int] = []  # compact ids, MRU first
    in_stack = bytearray(n_syms)
    e_x = array("i")  # per reuse: the reused id ...
    e_cnt = array("i")  # ... its depth (= number of interleaved ids) ...
    e_y = array("i")  # ... and the interleaved ids, flat
    emit_x = e_x.append
    emit_cnt = e_cnt.append
    emit_y = e_y.extend
    for x in inv.tolist():
        if in_stack[x]:
            d = stack.index(x)
            if d:
                emit_x(x)
                emit_cnt(d)
                emit_y(stack[:d])
                del stack[d]
                stack.insert(0, x)
        else:
            in_stack[x] = 1
            stack.insert(0, x)
            if window_blocks is not None and len(stack) > window_blocks:
                in_stack[stack.pop()] = 0
    return e_x, e_cnt, e_y


def build_trg_fast(
    trace: np.ndarray,
    window_blocks: Optional[int] = None,
) -> TRG:
    """Vectorized TRG construction, bit-identical to
    :func:`~repro.core.trg.build_trg`.

    The bounded move-to-front pass runs on a plain Python list of compact
    symbol ids (``list.index`` / slice / ``insert`` at C speed, with a
    byte-array membership test instead of a hash walk); each reuse at
    depth d appends its d-1 interleaved ids to a flat pair log.  Edge
    weights fall out of one ``np.unique`` over the encoded (min, max)
    pairs — no per-conflict dict updates.
    """
    if window_blocks is not None and window_blocks <= 0:
        raise ValueError("capacity must be positive or None")
    t = trim(np.asarray(trace))
    syms, first_idx, inv = np.unique(t, return_index=True, return_inverse=True)
    n_syms = int(syms.shape[0])
    e_x, e_cnt, e_y = _trg_records(inv, n_syms, window_blocks)
    xs = np.repeat(
        np.frombuffer(e_x, dtype=np.int32).astype(np.int64),
        np.frombuffer(e_cnt, dtype=np.int32),
    )
    ys = np.frombuffer(e_y, dtype=np.int32)
    code = np.minimum(xs, ys) * n_syms + np.maximum(xs, ys)
    if n_syms * n_syms <= _PAIR_TABLE_MAX:
        # Direct scatter-count — no sort needed; the code space is
        # dense enough that a bincount over it beats unique.
        w_all = np.bincount(code, minlength=n_syms * n_syms)
        codes = np.nonzero(w_all)[0]
        cnt = w_all[codes]
    else:
        codes, cnt = np.unique(code, return_counts=True)
    # Codes ascend, and ``syms`` does: the edges come out in (x, y) order.
    edges = np.stack((syms[codes // n_syms], syms[codes % n_syms]), axis=1)
    return TRG(syms[np.argsort(first_idx, kind="stable")], edges, cnt)
