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
* the warm-state fingerprint — ``cold`` for a fresh cache, otherwise a
  digest of the exact set contents and pending prefetch tags;
* the stream's content digest (:func:`repro.perf.store.trace_digest`:
  SHA-256 over the stream canonicalized to little-endian ``int64``).

Hashing the *digest* rather than the raw bytes is what unifies memo
keys with :class:`~repro.perf.store.TraceStore` keys: the store's
content key **is** the digest, so every key function here accepts
either the array or its digest string — a caller who already published
a stream derives all of its memo keys without rehashing the bytes.

Two calls share a key iff :func:`repro.cache.setassoc.simulate` would
return identical stats for them.

Warm-state **mutating** calls (``state=`` given) are *keyed* but never
*replayed*: a memo hit cannot reproduce the in-place state mutation the
caller asked for, so those calls pass through to the simulator and are
counted in :attr:`SimMemo.bypasses`.

Persistence is one JSON file per key under ``cache_dir``, written with
the crash-safe :func:`repro.robust.atomic.atomic_write_text` protocol —
a killed run leaves complete entries or none.  Unreadable or
schema-mismatched entries are treated as misses and dropped, never
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
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..cache.config import CacheConfig
from ..cache.fastsim import DistanceHistogram
from ..cache.setassoc import CacheState, simulate
from ..cache.stats import CacheStats
from ..locality.footprint import FootprintCurve, footprint_curve
from ..robust.atomic import atomic_write_text
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
    "state_fingerprint",
    "trg_key",
]

#: bumped whenever simulate()'s semantics change; invalidates old caches.
#: v3: keys hash the stream's content digest (store-key unification)
#: instead of the raw bytes.
SCHEMA = "repro.perf.memo.v3"

#: separate tag for stack-distance histogram entries (repro.cache.fastsim);
#: bumped whenever the kernel's semantics change (v2: digest-based keys).
KERNEL_SCHEMA = "repro.perf.memo.kernel.v2"

#: tag for locality-model analysis artifacts (repro.core.fastanalysis):
#: affinity coverage histograms and TRG payloads, keyed on the prepared
#: block trace + model parameters.  Bumped whenever either model's
#: semantics change (v2: digest-based keys).
ANALYSIS_SCHEMA = "repro.perf.memo.analysis.v2"

#: tag for all-window footprint curves (repro.locality.footprint).  The
#: curve depends only on the line stream, so one entry answers every
#: capacity, every peer group, and every co-run cell that program
#: appears in — the unit of reuse the fleet composition matrix counts
#: against (repro.fleet).
CURVE_SCHEMA = "repro.perf.memo.curve.v1"

#: stats fields persisted per entry, in schema order.
_STATS_FIELDS = ("accesses", "misses", "prefetches", "prefetch_hits")


def state_fingerprint(state: Optional[CacheState]) -> str:
    """Digest of a warm cache state (``"cold"`` for a fresh cache)."""
    if state is None:
        return "cold"
    h = hashlib.sha256()
    for s in state.sets:
        h.update(np.asarray(s, dtype="<i8").tobytes())
        h.update(b"/")
    h.update(np.asarray(sorted(state.prefetched), dtype="<i8").tobytes())
    return h.hexdigest()


def memo_key(
    lines,
    cfg: CacheConfig,
    *,
    prefetch: bool = False,
    state: Optional[CacheState] = None,
) -> str:
    """Content hash identifying one simulation's full input.

    ``lines`` may be the stream itself or its precomputed
    :func:`~repro.perf.store.trace_digest` — both yield the same key.
    """
    return hashlib.sha256(
        f"{SCHEMA}|{cfg.size_bytes}/{cfg.assoc}/{cfg.line_bytes}"
        f"|pf={int(prefetch)}|st={state_fingerprint(state)}"
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

    Counters: ``hits`` / ``misses`` split lookups; ``bypasses`` counts
    warm-state mutating calls that skipped the memo entirely;
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
        self._mem: dict[str, CacheStats] = {}
        self._mem_hist: dict[str, DistanceHistogram] = {}
        self._mem_analysis: dict[str, dict] = {}
        self._mem_curve: dict[str, FootprintCurve] = {}
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.disk_failures = 0
        self.degraded = 0
        self.lock_waits = 0

    # -- storage -----------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.json"

    def _disk_read(self, path: Path) -> Optional[str]:
        """Read an entry file through the circuit breaker.

        Returns the text, or None when the file is absent (a healthy
        miss — the tier answered, no strike), the tier is degraded
        (breaker open), or the read itself failed (one strike).
        """
        if not self.breaker.allow():
            self.degraded += 1
            return None
        try:
            maybe_io_fault(MEMO_READ, str(path))
            text = path.read_text()
        except FileNotFoundError:
            self.breaker.record_success()
            return None
        except OSError:
            self.disk_failures += 1
            self.breaker.record_failure()
            return None
        self.breaker.record_success()
        return text

    def _disk_write(self, path: Path, text: str) -> bool:
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
            atomic_write_text(path, text)
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

    def get(self, key: str) -> Optional[CacheStats]:
        """Stored stats for ``key``, counting the lookup as hit or miss."""
        stats = self._peek(key)
        if stats is None:
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def _peek(self, key: str) -> Optional[CacheStats]:
        stats = self._mem.get(key)
        if stats is not None:
            return _copy(stats)
        if self.cache_dir is None:
            return None
        path = self._entry_path(key)
        text = self._disk_read(path)
        if text is None:
            return None
        try:
            raw = json.loads(text)
            if raw.get("schema") != SCHEMA:
                raise ValueError(f"schema {raw.get('schema')!r}")
            stats = CacheStats(**{f: int(raw[f]) for f in _STATS_FIELDS})
        except (ValueError, TypeError, KeyError):
            # Corrupt or stale entry: a cache degrades to recomputation.
            self._drop_entry(path)
            return None
        self._mem[key] = stats
        return _copy(stats)

    def put(self, key: str, stats: CacheStats) -> None:
        """Store ``stats`` under ``key`` (in memory, and on disk if enabled)."""
        self._mem[key] = _copy(stats)
        if self.cache_dir is not None:
            payload = {"schema": SCHEMA}
            payload.update({f: getattr(stats, f) for f in _STATS_FIELDS})
            self._disk_write(self._entry_path(key), json.dumps(payload, sort_keys=True))

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` from memory and disk; True if anything was removed."""
        removed = self._mem.pop(key, None) is not None
        removed = self._mem_hist.pop(key, None) is not None or removed
        removed = self._mem_analysis.pop(key, None) is not None or removed
        removed = self._mem_curve.pop(key, None) is not None or removed
        if self.cache_dir is not None:
            path = self._entry_path(key)
            if path.exists():
                path.unlink()
                removed = True
            # The lock sidecar is bookkeeping, not an entry: drop it
            # silently and without affecting the return value.
            self._drop_entry(self.cache_dir / f"{key}.lock")
        return removed

    # -- the memoizing simulator ------------------------------------------

    def simulate(
        self,
        lines: np.ndarray,
        cfg: CacheConfig,
        *,
        prefetch: bool = False,
        state: Optional[CacheState] = None,
    ) -> CacheStats:
        """Drop-in for :func:`repro.cache.setassoc.simulate`, memoized.

        Warm-state calls mutate ``state`` in place, which a replay cannot
        reproduce — they bypass the memo (counted in ``bypasses``).
        """
        if state is not None:
            self.bypasses += 1
            return simulate(lines, cfg, prefetch=prefetch, state=state)
        key = memo_key(lines, cfg, prefetch=prefetch)
        stats = self.get(key)
        if stats is None:
            with self._key_lock(key) as waited:
                if waited:
                    # The lock's previous holder computed this very key;
                    # replay its published entry instead of repeating
                    # the simulation.
                    stats = self._peek(key)
                    if stats is not None:
                        self.hits += 1
                if stats is None:
                    stats = simulate(lines, cfg, prefetch=prefetch)
                    self.put(key, stats)
        return stats

    # -- kernel histograms (repro.cache.fastsim) ---------------------------

    def _peek_histogram(self, key: str) -> Optional[DistanceHistogram]:
        hist = self._mem_hist.get(key)
        if hist is None and self.cache_dir is not None:
            path = self._entry_path(key)
            text = self._disk_read(path)
            if text is not None:
                try:
                    raw = json.loads(text)
                    if raw.get("schema") != KERNEL_SCHEMA:
                        raise ValueError(f"schema {raw.get('schema')!r}")
                    hist = DistanceHistogram.from_dict(raw)
                except (ValueError, TypeError, KeyError):
                    self._drop_entry(path)
                    hist = None
            if hist is not None:
                self._mem_hist[key] = hist
        return hist

    def get_histogram(self, key: str) -> Optional[DistanceHistogram]:
        """Stored histogram for ``key``, counted as a hit or miss."""
        hist = self._peek_histogram(key)
        if hist is None:
            self.misses += 1
            return None
        self.hits += 1
        return hist

    def put_histogram(self, key: str, hist: DistanceHistogram) -> None:
        """Store ``hist`` under ``key`` (in memory, and on disk if enabled)."""
        self._mem_hist[key] = hist
        if self.cache_dir is not None:
            payload = {"schema": KERNEL_SCHEMA}
            payload.update(hist.to_dict())
            self._disk_write(self._entry_path(key), json.dumps(payload, sort_keys=True))

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
        key = histogram_key(lines, n_sets)
        hist = self.get_histogram(key)
        if hist is None:
            with self._key_lock(key) as waited:
                if waited:
                    hist = self._peek_histogram(key)
                    if hist is not None:
                        self.hits += 1
                if hist is None:
                    hist = _tier(backend).histogram(lines, n_sets)
                    self.put_histogram(key, hist)
        return hist

    # -- footprint curves (repro.locality.footprint) ------------------------

    def _peek_curve(self, key: str) -> Optional[FootprintCurve]:
        curve = self._mem_curve.get(key)
        if curve is None and self.cache_dir is not None:
            path = self._entry_path(key)
            text = self._disk_read(path)
            if text is not None:
                try:
                    raw = json.loads(text)
                    if raw.get("schema") != CURVE_SCHEMA:
                        raise ValueError(f"schema {raw.get('schema')!r}")
                    curve = FootprintCurve.from_dict(raw)
                except (ValueError, TypeError, KeyError):
                    self._drop_entry(path)
                    curve = None
            if curve is not None:
                self._mem_curve[key] = curve
        return curve

    def get_curve(self, key: str) -> Optional[FootprintCurve]:
        """Stored footprint curve for ``key``, counted as a hit or miss."""
        curve = self._peek_curve(key)
        if curve is None:
            self.misses += 1
            return None
        self.hits += 1
        return curve

    def put_curve(self, key: str, curve: FootprintCurve) -> None:
        """Store ``curve`` under ``key`` (in memory, and on disk if enabled).

        JSON round-trips floats through ``repr``, so a reloaded curve is
        bit-identical to the stored one — composition parity survives
        persistence.
        """
        self._mem_curve[key] = curve
        if self.cache_dir is not None:
            payload = {"schema": CURVE_SCHEMA}
            payload.update(curve.to_dict())
            self._disk_write(self._entry_path(key), json.dumps(payload, sort_keys=True))

    def footprint_curve(self, lines: np.ndarray) -> FootprintCurve:
        """Memoized :func:`repro.locality.footprint.footprint_curve`.

        The curve is immutable in practice (readers only index ``fp``),
        so the stored object is returned directly — no per-call copy.
        """
        key = curve_key(lines)
        curve = self.get_curve(key)
        if curve is None:
            with self._key_lock(key) as waited:
                if waited:
                    curve = self._peek_curve(key)
                    if curve is not None:
                        self.hits += 1
                if curve is None:
                    curve = footprint_curve(np.asarray(lines))
                    self.put_curve(key, curve)
        return curve

    # -- analysis artifacts (repro.core.fastanalysis) -----------------------

    def _peek_analysis(self, key: str, parse):
        """Load + parse an analysis payload without touching counters.

        ``parse`` raises ``ValueError`` on malformed payloads, which —
        like any other corruption — degrades to a miss (and an unlink on
        disk), never to a failure or a silently wrong artifact.
        """
        raw = self._mem_analysis.get(key)
        if raw is not None:
            try:
                return parse(raw)
            except (ValueError, TypeError, KeyError):
                self._mem_analysis.pop(key, None)
        if self.cache_dir is not None:
            path = self._entry_path(key)
            text = self._disk_read(path)
            if text is not None:
                try:
                    raw = json.loads(text)
                    if raw.get("schema") != ANALYSIS_SCHEMA:
                        raise ValueError(f"schema {raw.get('schema')!r}")
                    obj = parse(raw)
                except (ValueError, TypeError, KeyError):
                    self._drop_entry(path)
                else:
                    self._mem_analysis[key] = raw
                    return obj
        return None

    def _get_analysis(self, key: str, parse):
        """Load + parse an analysis payload; hit/miss counted."""
        obj = self._peek_analysis(key, parse)
        if obj is None:
            self.misses += 1
            return None
        self.hits += 1
        return obj

    def has_analysis(self, key: str) -> bool:
        """True if an entry exists for ``key`` (no counters, no parse).

        A planning probe for batch precomputation: existence does not
        guarantee validity — a corrupt entry will still degrade to a
        recomputation at consumption time.
        """
        if key in self._mem_analysis:
            return True
        return self.cache_dir is not None and self._entry_path(key).exists()

    def put_analysis(self, key: str, payload: dict) -> None:
        """Store an analysis payload (in memory, and on disk if enabled)."""
        payload = {"schema": ANALYSIS_SCHEMA, **payload}
        self._mem_analysis[key] = payload
        if self.cache_dir is not None:
            self._disk_write(
                self._entry_path(key), json.dumps(payload, sort_keys=True)
            )

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
        from ..core.fastanalysis import AffinityCoverage

        key = affinity_key(trace, w_max=w_max, time_horizon=time_horizon)

        def parse(raw: dict):
            covg = AffinityCoverage.from_dict(raw)
            if covg.w_max != w_max or covg.time_horizon != time_horizon:
                raise ValueError("analysis entry parameters do not match key")
            return covg

        covg = self._get_analysis(key, parse)
        if covg is None:
            with self._key_lock(key) as waited:
                if waited:
                    covg = self._peek_analysis(key, parse)
                    if covg is not None:
                        self.hits += 1
                if covg is None:
                    covg = _tier(backend).affinity(
                        trace, w_max=w_max, time_horizon=time_horizon
                    )
                    self.put_analysis(key, covg.to_dict())
        return covg

    def trg(
        self,
        trace: np.ndarray,
        *,
        window_blocks: Optional[int] = None,
        backend=None,
    ):
        """Memoized TRG build (:mod:`repro.core.fastanalysis`).

        Always returns a *fresh* :class:`~repro.core.trg.TRG` — callers
        may hand the graph to mutating consumers.  ``backend`` picks the
        kernel tier used on a miss and never enters the key.
        """
        from ..core.fastanalysis import trg_from_payload, trg_to_payload

        key = trg_key(trace, window_blocks=window_blocks)
        trg = self._get_analysis(key, trg_from_payload)
        if trg is None:
            with self._key_lock(key) as waited:
                if waited:
                    trg = self._peek_analysis(key, trg_from_payload)
                    if trg is not None:
                        self.hits += 1
                if trg is None:
                    trg = _tier(backend).trg(trace, window_blocks)
                    self.put_analysis(key, trg_to_payload(trg, window_blocks))
        return trg

    # -- introspection -----------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits over keyed lookups (bypasses excluded); 0.0 when unused."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "disk_failures": self.disk_failures,
            "degraded": self.degraded,
            "lock_waits": self.lock_waits,
            "breaker_trips": self.breaker.trips,
            "breaker_recoveries": self.breaker.recoveries,
            "hit_rate": round(self.hit_rate, 4),
        }

    def scrub(self) -> tuple[int, int]:
        """Validate every on-disk entry; returns ``(kept, dropped)``.

        Drops entries that are unreadable, non-JSON, or carry an unknown
        schema tag, plus stray ``.lock`` and ``.tmp`` files (lock files
        from finished dedups, temp files from killed atomic writes).
        Run after a chaos soak — or any hard kill — to guarantee the
        cache directory holds only complete, valid artifacts.
        """
        if self.cache_dir is None or not self.cache_dir.exists():
            return (0, 0)
        kept = dropped = 0
        valid = (SCHEMA, KERNEL_SCHEMA, ANALYSIS_SCHEMA, CURVE_SCHEMA)
        for path in sorted(self.cache_dir.iterdir()):
            if path.suffix in (".lock", ".tmp"):
                self._drop_entry(path)
                continue
            if path.suffix != ".json":
                continue
            try:
                ok = json.loads(path.read_text()).get("schema") in valid
            except (OSError, ValueError):
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


def _tier(backend):
    """The kernel tier that computes a miss: ``backend``, or the default
    tier when the caller named none."""
    if backend is not None:
        return backend
    from . import backends

    return backends.resolve_backend(None)
