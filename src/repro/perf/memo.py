"""Content-addressed memoization of cache simulations.

The evaluation matrix re-simulates identical (line stream, cache
geometry, prefetch flag) triples across experiments — the baseline
stream of each study program alone is simulated by the intro table,
Table I, Fig. 4, Fig. 5, and every co-run baseline.  :class:`SimMemo`
keys each solo simulation by a content hash of its inputs and replays
the stored :class:`~repro.cache.stats.CacheStats` instead of re-running
the LRU loop.

Keying rules
------------

The key is the SHA-256 of, in order:

* a schema tag (bumped whenever the simulator's semantics change, so
  stale caches can never leak across versions);
* the cache geometry (``size_bytes``/``assoc``/``line_bytes``);
* the prefetch flag;
* the stream's content digest (:func:`repro.perf.store.trace_digest`:
  SHA-256 over the stream canonicalized to little-endian ``int64``).

Hashing the *digest* rather than the raw bytes is what unifies memo
keys with :class:`~repro.perf.store.TraceStore` keys: the store's
content key **is** the digest, so every key function here accepts
either the array or its digest string — a caller who already published
a stream derives all of its memo keys without rehashing the bytes.

Two calls share a key iff :func:`repro.cache.setassoc.simulate` would
return identical stats for them.

Footprint curves have two key forms under the one ``CURVE_SCHEMA`` tag.
:func:`curve_key` hashes the stream's content, like every key above.
:func:`recipe_curve_key` names how the stream is made instead — the ref
run's recipe hash, the layout, the line size and the stream dtype — so a
caller can look a curve up before building anything.  The
:class:`~repro.experiments.pipeline.Lab` keys baseline curves by recipe
and optimized layouts' curves by content; each curve is stored once.

Persistence is one uncompressed ``.npz`` archive per key under
``cache_dir``: the entry kind's named arrays plus a 0-d ``schema``
string, written with the crash-safe :func:`repro.robust.atomic.atomic_write`
protocol — a killed run leaves complete entries or none.  Every kind
encodes to arrays (stats: four ints; histograms: ``hist`` plus scalars;
curves: ``fp``, ``n``, ``m``; TRGs: ``nodes``, ``(E, 2)`` edges and
their weights; affinity coverage: ``(P, 2)`` pairs, a ``(P, w_max+1)``
histogram matrix and ``(K, 2)`` occurrence tables), so an entry reads
back bit-identical with no text parsing.  Entries load with
``allow_pickle=False``, and every array is checked against its kind's
declared dtype and shape before it is decoded.  Unreadable, malformed
or schema-mismatched entries are treated as misses and dropped, never
raised: a cache must degrade to recomputation, not to failure.

Degradation and concurrency
---------------------------

The disk tier is wrapped in a
:class:`~repro.robust.supervisor.CircuitBreaker`: repeated read/write
``OSError`` s (a flaky disk, an NFS brown-out) trip it, after which
lookups run purely against the in-process memo (``degraded`` counts the
skipped disk operations) until the breaker half-opens on its timer and a
probe succeeds.  A missing entry file is a *healthy miss* — the tier
answered — and never counts against the breaker; corrupt entry *content*
stays on the degrade-to-recomputation path and is likewise no strike.

Concurrent writers computing the same key are de-duplicated with a
per-key advisory file lock (``flock`` on ``{key}.lock``): the loser
blocks until the winner publishes, then replays the winner's entry
instead of repeating the simulation.  ``flock`` locks die with their
holder, so a killed winner can never deadlock the losers.  When the
platform has no ``fcntl`` the lock degrades to a no-op — both writers
compute, and the atomic rename keeps the entry intact either way.

Kernel histograms
-----------------

The stack-distance kernel (:mod:`repro.cache.fastsim`) makes a coarser
memo unit worthwhile: its :class:`~repro.cache.fastsim.DistanceHistogram`
depends only on ``(line stream, n_sets)`` — not on ``line_bytes``,
``size_bytes``, or ``assoc`` — so one stored histogram answers every
associativity of a geometry family.  :func:`histogram_key` keys those
entries under the separate ``KERNEL_SCHEMA`` tag, and
:meth:`SimMemo.histogram` memoizes the histogram itself rather than a
single :class:`CacheStats`.
"""

from __future__ import annotations

import hashlib
import io
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..cache.config import CacheConfig
from ..cache.fastsim import DistanceHistogram
from ..cache.setassoc import simulate
from ..cache.stats import CacheStats
from ..core.fastanalysis import AffinityCoverage
from ..core.trg import TRG
from ..locality.footprint import FootprintCurve
# No caller here: the lab looks curves up with get_curve/put_curve.  The
# name stays importable from this module because the traced benchmark
# run (perfbench/spans.py) wraps it here.
from ..locality.footprint import footprint_curve  # noqa: F401
from ..robust.atomic import atomic_write
from ..robust.faults import MEMO_READ, MEMO_WRITE, maybe_io_fault
from ..robust.supervisor import CircuitBreaker
from .store import trace_digest

__all__ = [
    "SimMemo",
    "affinity_key",
    "analysis_key",
    "curve_key",
    "histogram_key",
    "memo_key",
    "recipe_curve_key",
    "trg_key",
]

#: bumped whenever simulate()'s semantics change; invalidates old caches.
#: v3: keys hash the stream's content digest (store-key unification)
#: instead of the raw bytes.  v4: keys drop the warm-state field.
#: v5: binary ``.npz`` entries.
SCHEMA = "repro.perf.memo.v5"

#: separate tag for stack-distance histogram entries (repro.cache.fastsim);
#: bumped whenever the kernel's semantics change (v2: digest-based keys;
#: v3: binary entries).
KERNEL_SCHEMA = "repro.perf.memo.kernel.v3"

#: tag for locality-model analysis artifacts (repro.core.fastanalysis):
#: affinity coverage histograms and TRGs, keyed on the prepared block
#: trace + model parameters.  Bumped whenever either model's semantics
#: change (v2: digest-based keys; v3: binary entries; v4: pair tables
#: and TRG edges stored sorted by ``(x, y)``).
ANALYSIS_SCHEMA = "repro.perf.memo.analysis.v4"

#: tag for all-window footprint curves (repro.locality.footprint).  The
#: curve depends only on the line stream, so one entry answers every
#: capacity, every peer group, and every co-run cell that program
#: appears in — the unit of reuse the fleet composition matrix counts
#: against (repro.fleet).  v2: binary entries.
CURVE_SCHEMA = "repro.perf.memo.curve.v2"

#: stats fields persisted per entry, in schema order.
_STATS_FIELDS = ("accesses", "misses", "prefetches", "prefetch_hits")


#: what reading an entry's bytes can raise when they are not a
#: well-formed entry (bad zip, truncated member, pickled or misshapen
#: array, missing name): each degrades to a dropped entry.
_MALFORMED = (
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    EOFError,
    OSError,
    zipfile.BadZipFile,
)


class _Codec(NamedTuple):
    """How one entry kind is tagged, stored and handed out."""

    schema: str
    #: array name -> (dtype kind, shape with ``None`` for any length):
    #: what a disk entry must hold before ``decode`` sees it (the
    #: encoder's declaration, e.g. ``FootprintCurve.ARRAYS``).
    fields: dict
    #: checked arrays -> the value kept in memory.
    decode: Callable
    #: value -> named arrays (the schema tag is added on write).
    encode: Callable
    #: stored value -> what a lookup returns.
    view: Callable = lambda value: value


def memo_key(lines, cfg: CacheConfig, *, prefetch: bool = False) -> str:
    """Content hash identifying one simulation's full input.

    ``lines`` may be the stream itself or its precomputed
    :func:`~repro.perf.store.trace_digest` — both yield the same key.
    """
    return hashlib.sha256(
        f"{SCHEMA}|{cfg.size_bytes}/{cfg.assoc}/{cfg.line_bytes}"
        f"|pf={int(prefetch)}"
        f"|{trace_digest(lines)}".encode()
    ).hexdigest()


def analysis_key(trace, kind: str, params: str) -> str:
    """Content hash identifying one locality-model analysis input.

    ``kind`` names the model (``affinity`` / ``trg``), ``params`` its
    result-relevant parameters — anything that changes the artifact must
    appear here, and nothing that does not (e.g. the affinity
    ``coverage`` threshold is applied at *query* time, so one coverage
    entry serves every threshold).  ``trace`` may be the symbol stream
    or its precomputed content digest.
    """
    return hashlib.sha256(
        f"{ANALYSIS_SCHEMA}|{kind}|{params}|{trace_digest(trace)}".encode()
    ).hexdigest()


def affinity_key(
    trace, *, w_max: int, time_horizon: Optional[int] = None
) -> str:
    """Key of one affinity-coverage artifact (all w <= w_max at once)."""
    return analysis_key(trace, "affinity", f"w={int(w_max)}/h={time_horizon}")


def trg_key(trace, *, window_blocks: Optional[int] = None) -> str:
    """Key of one TRG artifact."""
    return analysis_key(trace, "trg", f"win={window_blocks}")


def curve_key(lines) -> str:
    """Content hash identifying one footprint curve's input.

    The all-window footprint depends on the line stream alone — no
    geometry, no peers — so this is the coarsest memo unit in the
    family.  ``lines`` may be the stream or its content digest.
    """
    return hashlib.sha256(f"{CURVE_SCHEMA}|{trace_digest(lines)}".encode()).hexdigest()


def recipe_curve_key(bundle: str, layout: str, line_bytes: int, dtype) -> str:
    """Key of one footprint curve named by how its stream is made.

    ``bundle`` is the ref run's :func:`~repro.engine.instrument.bundle_key`
    (scaled workload spec, input spec, code salt of the IR, engine and
    workload packages); ``layout`` names a layout those packages alone
    derive, ``line_bytes`` the fetch granularity and ``dtype`` the
    stream's element type.  Equal recipes make equal streams, so the key
    answers without building the stream; it never collides with a
    :func:`curve_key` (a different preimage format under the same tag).
    """
    recipe = f"{CURVE_SCHEMA}|recipe|{bundle}|{layout}|{int(line_bytes)}|{np.dtype(dtype).str}"
    return hashlib.sha256(recipe.encode()).hexdigest()


def histogram_key(lines, n_sets: int) -> str:
    """Content hash identifying one stack-distance histogram's input.

    Deliberately coarser than :func:`memo_key`: the histogram depends
    only on the stream and ``n_sets``, so every associativity (and any
    ``line_bytes``) of the family shares one entry.  ``lines`` may be
    the stream or its content digest.
    """
    return hashlib.sha256(
        f"{KERNEL_SCHEMA}|sets={int(n_sets)}|{trace_digest(lines)}".encode()
    ).hexdigest()


class SimMemo:
    """Memo cache for :func:`repro.cache.setassoc.simulate` results.

    Parameters
    ----------
    cache_dir:
        optional directory for persistent entries.  ``None`` keeps the
        memo purely in-memory (one process lifetime).
    breaker:
        the :class:`~repro.robust.supervisor.CircuitBreaker` guarding
        the disk tier (a default one is built when omitted).  Tripped,
        the memo keeps answering from memory and recomputation while
        ``degraded`` counts the skipped disk operations.

    Footprint curves are stored under a stream key (:func:`curve_key`)
    or a recipe key (:func:`recipe_curve_key`, baseline layouts in the
    ``Lab``); :meth:`get_curve`/:meth:`put_curve` take either.

    Counters: ``hits`` / ``misses`` split lookups;
    ``disk_failures`` / ``degraded`` / ``lock_waits`` track the disk
    tier's health (see the module docstring).
    """

    def __init__(
        self,
        cache_dir: Optional[str | Path] = None,
        *,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: decoded entries of every kind (the keys' schema tags keep the
        #: kinds' key spaces disjoint).
        self._mem: dict[str, object] = {}
        self.hits = 0
        self.misses = 0
        self.disk_failures = 0
        self.degraded = 0
        self.lock_waits = 0

    # -- storage -----------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.npz"

    def _disk_read(self, path: Path) -> Optional[bytes]:
        """Read an entry file through the circuit breaker.

        Returns the bytes, or None when the file is absent (a healthy
        miss — the tier answered, no strike), the tier is degraded
        (breaker open), or the read itself failed (one strike).
        """
        if not self.breaker.allow():
            self.degraded += 1
            return None
        try:
            maybe_io_fault(MEMO_READ, str(path))
            data = path.read_bytes()
        except FileNotFoundError:
            self.breaker.record_success()
            return None
        except OSError:
            self.disk_failures += 1
            self.breaker.record_failure()
            return None
        self.breaker.record_success()
        return data

    def _disk_write(self, path: Path, arrays: dict) -> bool:
        """Persist an entry through the circuit breaker; False if the
        write was skipped (degraded) or failed.  The in-memory tier has
        the entry either way, so callers never need the outcome."""
        if not self.breaker.allow():
            self.degraded += 1
            return False
        assert self.cache_dir is not None
        try:
            maybe_io_fault(MEMO_WRITE, str(path))
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            with atomic_write(path, binary=True) as fh:
                np.savez(fh, **arrays)
        except OSError:
            self.disk_failures += 1
            self.breaker.record_failure()
            return False
        self.breaker.record_success()
        return True

    @staticmethod
    def _drop_entry(path: Path) -> None:
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass  # cleanup is best-effort; the entry already lost.

    @contextmanager
    def _key_lock(self, key: str) -> Iterator[bool]:
        """Cross-process advisory lock for one key (compute dedup).

        Yields True when another holder was waited on — the caller
        should re-check the entry before recomputing, because the winner
        published it while we blocked.  ``flock`` is released by the
        kernel when its holder dies, so a killed winner cannot strand
        the losers; on lockless platforms (or an unwritable cache dir)
        this degrades to a no-op and both writers compute.
        """
        if self.cache_dir is None or fcntl is None:
            yield False
            return
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fh = open(self.cache_dir / f"{key}.lock", "a+")
        except OSError:
            yield False
            return
        waited = False
        try:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self.lock_waits += 1
                waited = True
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            yield waited
        finally:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            fh.close()

    def _peek(self, kind: str, key: str, parse: Optional[Callable] = None):
        """The one entry reader: memory first, then disk; no counters.

        A disk entry must carry ``kind``'s schema tag and arrays and
        decode through its codec; the decoded value is kept in memory.
        The caller sees ``parse(value)`` (default: the codec's view).  Any
        malformed, stale or parse-rejected entry degrades to a miss and
        is dropped, never raised.
        """
        codec = _CODECS[kind]
        view = parse or codec.view
        value = self._mem.get(key)
        if value is not None:
            try:
                return view(value)
            except _MALFORMED:
                self._mem.pop(key, None)
                return None
        if self.cache_dir is None:
            return None
        path = self._entry_path(key)
        data = self._disk_read(path)
        if data is None:
            return None
        try:
            value = _decode(_load_entry(data), codec)
            out = view(value)
        except _MALFORMED:
            # Corrupt or stale entry: a cache degrades to recomputation.
            self._drop_entry(path)
            return None
        self._mem[key] = value
        return out

    def _get(self, kind: str, key: str, parse: Optional[Callable] = None):
        """:meth:`_peek`, counting the lookup as a hit or a miss."""
        value = self._peek(kind, key, parse)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def _put(self, kind: str, key: str, value) -> None:
        """The one entry writer: memory, and disk if enabled."""
        self._mem[key] = value
        if self.cache_dir is not None:
            codec = _CODECS[kind]
            arrays = {"schema": np.array(codec.schema), **codec.encode(value)}
            self._disk_write(self._entry_path(key), arrays)

    def _memoized(self, key: str, get: Callable, put: Callable, compute: Callable):
        """Replay ``key`` through ``get``, or compute and ``put`` it.

        The compute runs under the key lock.  A waited lock means the
        previous holder computed this very key, so ``get`` asks again
        and replays the published entry instead of recomputing; that
        second lookup adds at most a hit, never a second miss.
        """
        value = get(key)
        if value is None:
            with self._key_lock(key) as waited:
                if waited:
                    value = get(key)
                    if value is None:
                        self.misses -= 1
                if value is None:
                    value = compute()
                    put(key, value)
        return value

    def get(self, key: str) -> Optional[CacheStats]:
        """Stored stats for ``key``, counting the lookup as hit or miss."""
        return self._get("stats", key)

    def put(self, key: str, stats: CacheStats) -> None:
        """Store ``stats`` under ``key`` (in memory, and on disk if enabled)."""
        self._put("stats", key, _copy(stats))

    # -- the memoizing simulator ------------------------------------------

    def simulate(
        self, lines: np.ndarray, cfg: CacheConfig, *, prefetch: bool = False
    ) -> CacheStats:
        """Drop-in for :func:`repro.cache.setassoc.simulate`, memoized."""
        return self._memoized(
            memo_key(lines, cfg, prefetch=prefetch),
            self.get,
            self.put,
            lambda: simulate(lines, cfg, prefetch=prefetch),
        )

    # -- kernel histograms (repro.cache.fastsim) ---------------------------

    def get_histogram(self, key: str) -> Optional[DistanceHistogram]:
        """Stored histogram for ``key``, counted as a hit or miss."""
        return self._get("histogram", key)

    def put_histogram(self, key: str, hist: DistanceHistogram) -> None:
        """Store ``hist`` under ``key`` (in memory, and on disk if enabled)."""
        self._put("histogram", key, hist)

    def histogram(
        self, lines: np.ndarray, n_sets: int, *, backend=None
    ) -> DistanceHistogram:
        """Memoized stack-distance histogram (:mod:`repro.cache.fastsim`).

        The histogram is immutable in practice (``misses()`` only builds
        an internal suffix sum), so the stored object is returned
        directly — no per-call copy.

        ``backend`` (a :class:`repro.perf.backends.KernelBackend`) picks
        the tier used on a miss (default: the fastest available).  It
        deliberately does NOT enter the key: every tier is bit-identical
        by contract, so entries are shared across backends (pinned by
        the cross-backend memo-hit test).
        """
        return self._memoized(
            histogram_key(lines, n_sets),
            self.get_histogram,
            self.put_histogram,
            lambda: _tier(backend).histogram(lines, n_sets),
        )

    # -- footprint curves (repro.locality.footprint) ------------------------

    def get_curve(self, key: str) -> Optional[FootprintCurve]:
        """Stored footprint curve for ``key``, counted as a hit or miss."""
        return self._get("curve", key)

    def put_curve(self, key: str, curve: FootprintCurve) -> None:
        """Store ``curve`` under ``key`` (in memory, and on disk if enabled).

        The entry holds ``fp`` as raw ``float64``, so a reloaded curve is
        bit-identical to the stored one — composition parity survives
        persistence.
        """
        self._put("curve", key, curve)

    # -- analysis artifacts (repro.core.fastanalysis) -----------------------

    def put_analysis(self, key: str, artifact) -> None:
        """Store an analysis artifact — an
        :class:`~repro.core.fastanalysis.AffinityCoverage` or a
        :class:`~repro.core.trg.TRG` — in memory, and on disk if
        enabled.  Both hold read-only arrays, so the object itself is
        kept and handed out."""
        self._put(artifact.KIND, key, artifact)

    def affinity_coverage(
        self,
        trace: np.ndarray,
        *,
        w_max: int,
        time_horizon: Optional[int] = None,
        backend=None,
    ):
        """Memoized affinity coverage (:mod:`repro.core.fastanalysis`).

        One entry answers every ``coverage`` threshold and every
        ``w <= w_max`` (both are applied at query time).  ``backend``
        picks the kernel tier used on a miss and never enters the key
        (tiers are bit-identical by contract).
        """
        def parse(covg: AffinityCoverage) -> AffinityCoverage:
            if covg.w_max != w_max or covg.time_horizon != time_horizon:
                raise ValueError("analysis entry parameters do not match key")
            return covg

        return self._memoized(
            affinity_key(trace, w_max=w_max, time_horizon=time_horizon),
            lambda key: self._get("affinity", key, parse),
            self.put_analysis,
            lambda: _tier(backend).affinity(
                trace, w_max=w_max, time_horizon=time_horizon
            ),
        )

    def trg(
        self,
        trace: np.ndarray,
        *,
        window_blocks: Optional[int] = None,
        backend=None,
    ):
        """Memoized TRG build (:mod:`repro.core.fastanalysis`).

        The stored :class:`~repro.core.trg.TRG` is returned directly: its
        arrays are read-only, so no caller can change a later replay.
        ``backend`` picks the kernel tier used on a miss and never enters
        the key.
        """
        return self._memoized(
            trg_key(trace, window_blocks=window_blocks),
            lambda key: self._get("trg", key),
            self.put_analysis,
            lambda: _tier(backend).trg(trace, window_blocks),
        )

    # -- introspection -----------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits over keyed lookups; 0.0 when unused."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_failures": self.disk_failures,
            "degraded": self.degraded,
            "lock_waits": self.lock_waits,
            "breaker_trips": self.breaker.trips,
            "breaker_recoveries": self.breaker.recoveries,
            "hit_rate": round(self.hit_rate, 4),
        }

    def scrub(self) -> tuple[int, int]:
        """Validate every on-disk entry; returns ``(kept, dropped)``.

        Keeps exactly the entries a lookup would serve: those that some
        entry kind's codec decodes and views (:meth:`_peek`'s path, minus
        a caller's key-specific parse).  Drops the rest — unreadable, not
        an ``.npz`` archive, a wrong schema tag or array, or arrays its
        ``from_arrays`` rejects — plus stray
        ``.lock`` and ``.tmp`` files (lock files from finished dedups,
        temp files from killed atomic writes).  Run after a chaos soak —
        or any hard kill — to guarantee the cache directory holds only
        complete, valid artifacts.
        """
        if self.cache_dir is None or not self.cache_dir.exists():
            return (0, 0)
        kept = dropped = 0
        for path in sorted(self.cache_dir.iterdir()):
            if path.suffix in (".lock", ".tmp"):
                self._drop_entry(path)
                continue
            if path.suffix != ".npz":
                continue
            try:
                arrays = _load_entry(path.read_bytes())
                ok = any(_serves(arrays, codec) for codec in _CODECS.values())
            except _MALFORMED:
                ok = False
            if ok:
                kept += 1
            else:
                self._drop_entry(path)
                dropped += 1
        return (kept, dropped)


def _copy(stats: CacheStats) -> CacheStats:
    """Callers may mutate returned stats; never alias the stored entry."""
    return CacheStats(
        accesses=stats.accesses,
        misses=stats.misses,
        prefetches=stats.prefetches,
        prefetch_hits=stats.prefetch_hits,
    )


def _load_entry(data: bytes) -> dict[str, np.ndarray]:
    """Every array of an ``.npz`` entry, read without unpickling."""
    npz = np.load(io.BytesIO(data), allow_pickle=False)
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise ValueError("memo entry is not an .npz archive")
    with npz:
        return {name: npz[name] for name in npz.files}


def _checked(arrays: dict[str, np.ndarray], codec: _Codec) -> dict[str, np.ndarray]:
    """``arrays`` if they carry ``codec``'s schema tag and declared
    arrays, else ``ValueError``."""
    schema = arrays.get("schema")
    if schema is None or schema.dtype.kind != "U" or schema.shape != ():
        raise ValueError("memo entry has no schema tag")
    if str(schema) != codec.schema:
        raise ValueError(f"schema {str(schema)!r}")
    for name, (kind, shape) in codec.fields.items():
        arr = arrays[name]
        if (
            arr.dtype.kind != kind
            or arr.ndim != len(shape)
            or any(want not in (None, got) for want, got in zip(shape, arr.shape))
        ):
            raise ValueError(f"memo entry array {name!r} is {arr.dtype}{arr.shape}")
    return arrays


def _decode(arrays: dict[str, np.ndarray], codec: _Codec):
    """The value ``codec`` keeps for an entry's ``arrays``; raises one of
    :data:`_MALFORMED` when they are not a valid entry of its kind."""
    return codec.decode(_checked(arrays, codec))


def _serves(arrays: dict[str, np.ndarray], codec: _Codec) -> bool:
    """Whether a lookup of ``codec``'s kind would serve ``arrays``."""
    try:
        codec.view(_decode(arrays, codec))
    except _MALFORMED:
        return False
    return True


def _artifact_codec(schema: str, cls) -> _Codec:
    """The codec of a class that declares its ``ARRAYS`` and converts
    with ``to_arrays``/``from_arrays``; its objects are kept as they are."""
    return _Codec(schema, cls.ARRAYS, cls.from_arrays, cls.to_arrays)


#: every entry kind's codec.  Affinity coverage and TRGs share one
#: schema tag; their ``kind`` array tells their entries apart.
_CODECS: dict[str, _Codec] = {
    "stats": _Codec(
        SCHEMA,
        {"stats": ("i", (len(_STATS_FIELDS),))},
        lambda raw: CacheStats(**dict(zip(_STATS_FIELDS, raw["stats"].tolist()))),
        lambda stats: {
            "stats": np.array([getattr(stats, f) for f in _STATS_FIELDS], dtype=np.int64)
        },
        _copy,
    ),
    "histogram": _artifact_codec(KERNEL_SCHEMA, DistanceHistogram),
    "curve": _artifact_codec(CURVE_SCHEMA, FootprintCurve),
    "affinity": _artifact_codec(ANALYSIS_SCHEMA, AffinityCoverage),
    "trg": _artifact_codec(ANALYSIS_SCHEMA, TRG),
}


def _tier(backend):
    """The kernel tier that computes a miss: ``backend``, or the default
    tier when the caller named none."""
    if backend is not None:
        return backend
    from . import backends

    return backends.resolve_backend(None)
