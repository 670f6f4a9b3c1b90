"""Exact stack-distance LRU kernel: every associativity in one pass.

LRU obeys an *inclusion property*: at any instant an A-way set holds
exactly the A most-recently-used distinct lines that map to it.  An
access therefore hits iff its **stack distance** — the number of
distinct same-set lines touched since its previous access — is smaller
than the associativity, and a single pass that records the *histogram*
of stack distances answers the miss count of every associativity of a
given ``n_sets`` at once:

    ``misses(A) = cold + sum_{d >= A} hist[d]``

where ``cold`` counts first-touch (compulsory) accesses.  The scalar
loop in :mod:`repro.cache.setassoc` re-runs the whole stream once per
associativity; this kernel replaces an A-point associativity sweep with
one pass (see ``docs/algorithms.md`` for the derivation and
``docs/performance.md`` for measured speedups).

Two constructions, parity-tested against each other and against the
event-driven simulator; each kernel tier of :mod:`repro.perf.backends`
picks its own:

* :func:`stack_distance_histogram` (the ``numpy`` tier) — the batch
  offline sweep: no per-access Python loop at all.  Stack distances are
  recovered from the previous-occurrence / dominance-count identity
  ``d_i = #{k in (p_i, i) : prev[k] <= p_i}`` — after partitioning and
  distance-0 stripping, the left-rank counts reduce to a pure
  permutation problem solved by a chunked Fenwick-style decomposition:
  a 2D block-grid cumulative histogram for cross-block pairs plus
  64-wide bitset rows (``uint64`` masks + popcount) for the partial and
  within-block pairs.  Everything is whole-array NumPy work, run over
  slabs of whole sets (:func:`_slab_distances`) so that the grid stays
  bounded however long the stream.
* :func:`fenwick_histogram` (the ``scalar`` tier's oracle) — the
  textbook O(n log n) construction: line ids are compacted through one
  global ``np.unique``, and a Fenwick tree (binary indexed tree) over
  set-local positions maintains one mark per distinct line at its
  latest access, so the distinct-since-last-access count is a range
  sum.  Slow under CPython, obviously correct.

The kernel only models what stack distances can express: a **cold**
cache, **no prefetcher**, true LRU.  Inside that domain every miss
count is one read of :func:`miss_labels`, the same sweep returning the
label of each access that misses: per thread of the labelled SMT
co-run stream of :func:`repro.cache.shared.interleave`
(:func:`thread_misses` — inclusion holds whoever issued an access), per
line (:func:`per_line_misses`), and per level of the two-level
hierarchy (:mod:`repro.cache.hierarchy`, labels = stream positions).
Prefetching changes set contents in ways a reuse histogram cannot
capture; that path stays on the event-driven simulator
(:func:`repro.cache.setassoc.run_lru`).
"""

from __future__ import annotations

import numpy as np

from .config import CacheConfig
from .stats import CacheStats

__all__ = [
    "DistanceHistogram",
    "fenwick_histogram",
    "miss_labels",
    "per_line_misses",
    "stack_distance_histogram",
    "thread_misses",
]


class DistanceHistogram:
    """Per-set LRU stack-distance histogram of one access stream.

    ``hist[d]`` counts accesses whose stack distance is exactly ``d``
    (0-indexed position in the set's LRU stack at access time); ``cold``
    counts first touches.  Because every line maps to exactly one set,
    ``cold`` equals the number of distinct lines in the stream.  The
    histogram is trimmed (no trailing zeros), so two constructions of
    the same stream compare equal.
    """

    __slots__ = ("n_sets", "accesses", "cold", "hist", "_tail")

    def __init__(self, n_sets: int, accesses: int, cold: int, hist: np.ndarray):
        self.n_sets = int(n_sets)
        self.accesses = int(accesses)
        self.cold = int(cold)
        self.hist = np.asarray(hist, dtype=np.int64)
        self._tail: np.ndarray | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceHistogram):
            return NotImplemented
        return (
            self.n_sets == other.n_sets
            and self.accesses == other.accesses
            and self.cold == other.cold
            and np.array_equal(self.hist, other.hist)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DistanceHistogram(n_sets={self.n_sets}, accesses={self.accesses}, "
            f"cold={self.cold}, max_distance={len(self.hist) - 1})"
        )

    def misses(self, assoc: int) -> int:
        """Exact LRU miss count at ``assoc`` ways (cold + far reuses)."""
        if assoc < 1:
            raise ValueError("assoc must be >= 1")
        if self._tail is None:
            # _tail[i] = number of accesses with distance >= i.
            self._tail = np.concatenate(
                [np.cumsum(self.hist[::-1])[::-1], np.zeros(1, dtype=np.int64)]
            )
        return self.cold + int(self._tail[min(assoc, len(self.hist))])

    def stats(self, assoc: int) -> CacheStats:
        """The :class:`CacheStats` a cold, prefetch-free LRU run would report."""
        return CacheStats(accesses=self.accesses, misses=self.misses(assoc))

    # -- persistence (see repro.perf.memo) ---------------------------------

    #: what :meth:`to_arrays` emits: name -> (dtype kind, shape), with
    #: ``None`` for an axis of any length.
    ARRAYS = {
        "n_sets": ("i", ()),
        "accesses": ("i", ()),
        "cold": ("i", ()),
        "hist": ("i", (None,)),
    }

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Named arrays: ``hist`` plus the three scalars."""
        return {
            "n_sets": np.array(self.n_sets, dtype=np.int64),
            "accesses": np.array(self.accesses, dtype=np.int64),
            "cold": np.array(self.cold, dtype=np.int64),
            "hist": self.hist,
        }

    @classmethod
    def from_arrays(cls, raw: dict) -> "DistanceHistogram":
        return cls(
            n_sets=int(raw["n_sets"]),
            accesses=int(raw["accesses"]),
            cold=int(raw["cold"]),
            hist=raw["hist"],
        )


def _canonical_stream(lines: np.ndarray) -> np.ndarray:
    arr = np.asarray(lines)
    if arr.ndim != 1:
        raise ValueError("lines must be one-dimensional")
    return arr.astype(np.int64, copy=False)


def _partition(
    arr: np.ndarray, n_sets: int, labels: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Stable set partition: per-set subsequences in time order.

    Returns the partitioned stream (sets contiguous, each set's accesses
    in original order), the per-set access counts, and ``labels`` (one
    per access, e.g. the issuing thread) carried through the same
    permutation (``None`` when not given).
    """
    if n_sets == 1:
        return arr, np.array([arr.shape[0]], dtype=np.int64), labels
    sets = arr & (n_sets - 1)
    # Narrow the sort key: the stable argsort is a radix sort whose pass
    # count tracks the key width, and set indices fit one or two bytes.
    if n_sets <= 256:
        key = sets.astype(np.uint8)
    elif n_sets <= 65536:
        key = sets.astype(np.uint16)
    else:
        key = sets
    order = np.argsort(key, kind="stable")
    if labels is not None:
        labels = labels[order]
    return arr[order], np.bincount(sets, minlength=n_sets), labels


def _strip_d0(
    part: np.ndarray, counts: np.ndarray, labels: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray | None]:
    """Drop distance-0 accesses (immediate same-line repeats) up front.

    A same-line repeat across a set boundary is impossible (a line maps
    to one set), so one adjacent-equality scan over the partitioned
    stream finds every distance-0 access.  They never change a stack;
    callers count them straight into ``hist[0]``.  Returns the stripped
    stream, the shrunken per-set counts, the repeat count, and
    ``labels`` under the same mask.
    """
    n = part.shape[0]
    dup = np.empty(n, dtype=bool)
    dup[0] = False
    np.equal(part[1:], part[:-1], out=dup[1:])
    n_d0 = int(np.count_nonzero(dup))
    if n_d0:
        n_sets = counts.shape[0]
        if n_sets > 1:
            counts = counts - np.bincount(part[dup] & (n_sets - 1), minlength=n_sets)
        else:
            counts = counts - n_d0
        keep = ~dup
        part = part[keep]
        if labels is not None:
            labels = labels[keep]
    return part, counts, n_d0, labels


def _set_bounds(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start/end offsets of each non-empty set in the partitioned stream."""
    ends = np.cumsum(counts)
    starts = ends - counts
    nonempty = np.flatnonzero(counts)
    return starts[nonempty], ends[nonempty], nonempty


def _trim(hist: list[int]) -> np.ndarray:
    arr = np.asarray(hist, dtype=np.int64)
    return np.trim_zeros(arr, "b")


def _bit_histogram(part: np.ndarray, counts: np.ndarray) -> tuple[int, np.ndarray]:
    """Fenwick-tree distances over the partitioned stream (O(n log n)).

    Line values are compacted to dense ids by one *global* ``np.unique``
    (a line maps to exactly one set, so ids never collide across sets
    and one shared last-position table serves every set), and a Fenwick
    tree over set-local access positions keeps one mark at the latest
    access of each distinct line.  At an access whose previous
    occurrence sits at position ``p``, the marked count in ``(p, i-1]``
    is exactly the number of distinct *other* lines touched since — the
    stack distance.  The mark then moves from ``p`` to ``i``.
    """
    cold = 0
    hist: list[int] = []
    gids = np.unique(part, return_inverse=True)[1]
    ids = gids.tolist()
    last = [0] * (int(gids.max()) + 1 if ids else 0)
    starts, ends, _ = _set_bounds(counts)
    for pos, end in zip(starts.tolist(), ends.tolist()):
        cnt = end - pos
        tree = [0] * (cnt + 1)
        for i, lid in enumerate(ids[pos:end], start=1):
            p = last[lid]
            if p:
                d = 0
                j = i - 1
                while j:
                    d += tree[j]
                    j -= j & -j
                j = p
                while j:
                    d -= tree[j]
                    j -= j & -j
                if d < len(hist):
                    hist[d] += 1
                else:
                    hist.extend([0] * (d + 1 - len(hist)))
                    hist[d] = 1
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
    return cold, _trim(hist)


#: sweep row width: rows fit one uint64 bitmask.
_ROW = 64


def _count_left_smaller_rows(rows: np.ndarray, out_rows: np.ndarray) -> None:
    """Per element: strictly-smaller elements to its left within its row.

    ``rows`` is ``(r, 64)``; each row is handled with one uint64 bitmask
    per element.  In per-row value order (``argsort``), the running OR of
    position bits gives the columns holding smaller-or-equal values;
    xor-ing the own bit leaves strictly-smaller, masking with
    ``bit - 1`` keeps strictly-left, and a popcount collapses the mask.
    All rows go through each step together — no per-element Python work.
    """
    sig = np.argsort(rows, axis=1, kind="stable")
    sigu = sig.view(np.uint64)
    bits = np.left_shift(np.uint64(1), sigu)
    cum = np.bitwise_or.accumulate(bits, axis=1)
    np.bitwise_xor(cum, bits, out=cum)  # strictly-smaller columns
    np.subtract(bits, np.uint64(1), out=bits)  # strictly-left columns
    np.bitwise_and(cum, bits, out=cum)
    np.put_along_axis(out_rows, sig, np.bitwise_count(cum), axis=1)


def _left_rank_permutation(vrank: np.ndarray) -> np.ndarray:
    """``c_i = #{k < i : vrank[k] < vrank[i]}`` for a permutation.

    Chunked Fenwick-style decomposition into three disjoint pair
    classes: *cross* pairs (earlier position block AND smaller value
    bucket) from a 2D block-grid cumulative histogram; *partial* pairs
    (same value bucket, earlier position block) and *within* pairs (same
    position block) from 64-wide bitset rows.  O(m·(m/64 + log 64))
    array work with no Python-level loop.
    """
    m = vrank.shape[0]
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    W = _ROW
    if m <= 2 * W:
        cmp = vrank[None, :] < vrank[:, None]
        tril = np.tri(m, m, -1, dtype=bool)
        return (cmp & tril).sum(axis=1, dtype=np.int64)
    npb = -(-m // W)
    padded = npb * W
    pos = np.arange(m, dtype=np.int64)
    pb = pos // W
    vb = vrank // W
    H = np.bincount(pb * npb + vb, minlength=npb * npb).astype(np.int32)
    A = H.reshape(npb, npb).cumsum(axis=1, dtype=np.int32)
    C = np.ascontiguousarray(A.T).cumsum(axis=1, dtype=np.int32)  # C[vb, pb]
    Cp = np.zeros((npb + 1, npb + 1), dtype=np.int32)
    Cp[1:, 1:] = C
    c = Cp.ravel()[vb * (npb + 1) + pb].astype(np.int64)
    # Partial bucket (value-order rows): tie-break equal position blocks
    # by *descending* column so they never count as smaller.
    posn = np.empty(m, dtype=np.int64)
    posn[vrank] = pos
    keys = np.empty(padded, dtype=np.int64)
    kv = keys[:m]
    np.floor_divide(posn, W, out=kv)
    kv *= W
    kv += (W - 1) - (pos % W)
    keys[m:] = np.iinfo(np.int64).max
    out_rows = np.empty((npb, W), dtype=np.uint8)
    _count_left_smaller_rows(keys.reshape(npb, W), out_rows)
    c[posn] += out_rows.reshape(-1)[:m]
    # Within position block (time-order rows).
    keys[:m] = vrank
    _count_left_smaller_rows(keys.reshape(npb, W), out_rows)
    c += out_rows.reshape(-1)[:m]
    return c


def _sweep_distances(part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack distance of every access of a d0-stripped partitioned stream.

    Returns ``(reuse, d)``: ``reuse`` masks the accesses that are not
    first touches and ``d`` holds their distances, in stream order.  An
    access ``i`` with previous same-line occurrence at global position
    ``p_i`` has stack distance ``d_i = #{k in (p_i, i) : prev[k] <= p_i}``
    — the lines touched since ``p_i`` whose own previous occurrence
    precedes ``p_i`` (distinct, same set — earlier-set positions cancel
    out of the subtraction), where a cold access counts as preceding
    every position.  Splitting the left-rank count into a cold-prefix
    cumsum plus a pure-permutation rank of the reuses (their thresholds
    are distinct) hands the hard part to :func:`_left_rank_permutation`.
    """
    m = part.shape[0]
    if m == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    order = np.argsort(part, kind="stable")
    sorted_part = part[order]
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(sorted_part[1:], sorted_part[:-1], out=first[1:])
    prevg = np.empty(m, dtype=np.int64)
    if m > 1:
        prevg[order[1:]] = order[:-1]
    cold_pos = order[first]
    reuse = np.ones(m, dtype=bool)
    reuse[cold_pos] = False
    if cold_pos.shape[0] == m:
        return reuse, np.zeros(0, dtype=np.int64)
    p = prevg[reuse]
    cold_before = np.cumsum(~reuse)
    # Non-cold thresholds are exactly the positions with a *next* same-line
    # occurrence, so their value rank follows from one boolean cumsum —
    # no extra argsort.
    is_prev = np.zeros(m, dtype=bool)
    is_prev[p] = True
    vrank = (np.cumsum(is_prev) - 1)[p]
    d = _left_rank_permutation(vrank)
    d += cold_before[reuse]
    d -= p
    d -= 1
    return reuse, d


#: accesses one sweep slab may cover.  The sweep's block grid grows with
#: the square of its stream, so a stream is swept in slabs of whole
#: consecutive sets of at most this many accesses (a larger set is a slab
#: of its own), which bounds the grid at ``(_SLAB_ACCESSES / 64)**2``
#: cells whatever the stream's length.
_SLAB_ACCESSES = 1 << 14


def _slab_distances(part: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_sweep_distances` of a d0-stripped partitioned stream, run
    over one slab of whole sets at a time.

    A stack distance counts only lines of the access's own set, so slabs
    of whole sets sweep independently and their results, concatenated in
    partition order, are the whole stream's ``(reuse, d)``.
    """
    ends = np.cumsum(counts)
    reuse = np.empty(part.shape[0], dtype=bool)
    distances = []
    first = 0
    while first < counts.shape[0]:
        start = int(ends[first] - counts[first])
        stop = max(int(np.searchsorted(ends, start + _SLAB_ACCESSES, "right")), first + 1)
        end = int(ends[stop - 1])
        reuse[start:end], d = _sweep_distances(part[start:end])
        distances.append(d)
        first = stop
    return reuse, np.concatenate(distances)


def _sweep_histogram(part: np.ndarray, counts: np.ndarray) -> tuple[int, np.ndarray]:
    """Batch offline sweep: whole-histogram distances with no access loop."""
    part, counts, n_d0, _ = _strip_d0(part, counts)
    _, d = _slab_distances(part, counts)
    hist = np.bincount(d, minlength=1)
    hist[0] += n_d0
    return part.shape[0] - d.shape[0], _trim(hist)


def _build_histogram(lines: np.ndarray, n_sets: int, construction) -> DistanceHistogram:
    """Exact per-set LRU stack-distance histogram of ``lines``.

    ``n_sets`` must be a power of two (set index is ``line & (n_sets-1)``,
    as in the event-driven simulators).  ``construction`` maps the
    set-partitioned stream and per-set counts to ``(cold, hist)``; the
    result answers the miss count of *every* associativity at this
    ``n_sets`` — see :meth:`DistanceHistogram.misses`.
    """
    if n_sets < 1 or n_sets & (n_sets - 1):
        raise ValueError("n_sets must be a positive power of two")
    arr = _canonical_stream(lines)
    n = arr.shape[0]
    if n == 0:
        return DistanceHistogram(n_sets, 0, 0, np.zeros(0, dtype=np.int64))
    part, counts, _ = _partition(arr, n_sets)
    cold, hist = construction(part, counts)
    return DistanceHistogram(n_sets=n_sets, accesses=n, cold=cold, hist=hist)


def stack_distance_histogram(lines: np.ndarray, n_sets: int) -> DistanceHistogram:
    """The histogram by the batch sweep (the ``numpy`` tier)."""
    return _build_histogram(lines, n_sets, _sweep_histogram)


def fenwick_histogram(lines: np.ndarray, n_sets: int) -> DistanceHistogram:
    """The histogram by the per-access Fenwick tree (the ``scalar`` tier)."""
    return _build_histogram(lines, n_sets, _bit_histogram)


def miss_labels(
    lines: np.ndarray, n_sets: int, assoc: int, labels: np.ndarray
) -> np.ndarray:
    """The label of every access of ``lines`` that misses in a cold LRU cache.

    ``labels[i]`` tags ``lines[i]`` (the issuing thread, the line itself,
    the stream position ...).  Without a prefetcher LRU keeps the
    inclusion property, so an access misses iff it is a first touch or
    its stack distance is ``>= assoc``; one batch sweep gives every
    distance, and the labels, carried through the set partition and the
    d0 strip, name the accesses that missed.  The result is in
    set-partitioned order, not stream order.
    """
    if n_sets < 1 or n_sets & (n_sets - 1):
        raise ValueError("n_sets must be a positive power of two")
    if assoc < 1:
        raise ValueError("assoc must be >= 1")
    arr = _canonical_stream(lines)
    labels = np.asarray(labels)
    if labels.shape != arr.shape:
        raise ValueError("lines and labels must align")
    if arr.shape[0] == 0:
        return labels
    part, counts, labels = _partition(arr, n_sets, labels)
    part, counts, _, labels = _strip_d0(part, counts, labels)
    reuse, d = _slab_distances(part, counts)
    missed = ~reuse
    missed[reuse] = d >= assoc
    return labels[missed]


def thread_misses(
    lines: np.ndarray, threads: np.ndarray, n_threads: int, n_sets: int, assoc: int
) -> np.ndarray:
    """Exact per-thread LRU misses of one thread-labelled stream.

    ``threads[i]`` is the thread (in ``[0, n_threads)``) that issued
    ``lines[i]``; a shared cache without a prefetcher keeps the
    inclusion property whoever issues an access.  Returns an
    ``(n_threads,)`` int64 array of miss counts.
    """
    missed = miss_labels(lines, n_sets, assoc, threads)
    return np.bincount(missed, minlength=n_threads)


def per_line_misses(lines: np.ndarray, cfg: CacheConfig) -> dict[int, int]:
    """Exact LRU miss count *per line* under ``cfg`` (cold included).

    The attribution the aggregate histogram cannot answer: which lines
    eat the misses.  Used by the static-analysis certification mode
    (:mod:`repro.staticlint.certify`) to rank-correlate predicted
    conflict scores against measured per-line miss volume.  Same model
    domain as the kernel (cold cache, no prefetch, true LRU); the summed
    counts equal :meth:`DistanceHistogram.misses` at ``cfg.assoc``
    exactly (pinned by the parity tests).

    Returns a dict mapping line index to its miss count, in line order;
    lines that never miss (or never appear) are absent.
    """
    arr = _canonical_stream(lines)
    missed, counts = np.unique(miss_labels(arr, cfg.n_sets, cfg.assoc, arr), return_counts=True)
    return dict(zip(missed.tolist(), counts.tolist()))
