"""Zero-copy, content-addressed trace store: mmap-backed int64 streams.

The cell fan-out layers (:mod:`repro.perf.parallel`) used to pickle every
line/symbol stream into every worker dispatch — serialization cost that
scales with *trace size*, not with *work*.  :class:`TraceStore` moves the
streams into memory-mapped files under a content hash so a dispatch
ships a ~100-byte :class:`StoreRef` descriptor instead of megabytes of
array, and workers attach with :func:`numpy.memmap` reads that copy
nothing until the kernel actually touches the pages.

Keying
------

A store key is :func:`trace_digest` — the SHA-256 of the stream
canonicalized to little-endian ``int64`` — with **no schema header**, so
it identifies the *content*, not any consumer's view of it.  The memo
keys (:func:`repro.perf.memo.memo_key` / ``histogram_key`` /
``analysis_key``) are built *from* this digest: every one of them
accepts either the raw array or a precomputed digest string and hashes
the digest, which means a store key doubles as the trace component of
every memo key.  Publish a stream once, and its digest keys the store
entry, the histogram memo entry, and the analysis memo entries without
ever hashing the bytes again.

Durability
----------

Entries are standard ``.npy`` files (so corruption detection rides on
the format's own magic/header/size validation) published with the
crash-safe write-temp-then-rename protocol of
:mod:`repro.robust.atomic`: a killed writer leaves a complete entry or
none.  Concurrent writers racing on one key are harmless — the content
hash guarantees both write identical bytes and the atomic rename keeps
whichever finishes last.  A corrupt or truncated entry is unlinked and
reported as a miss (``corrupt_dropped``); like the memo, the store
degrades to recomputation, never to failure or to silently wrong data.

Reads are cached per process (``self._maps``), so repeated ``get`` s of
one key share a single open memmap instead of churning file
descriptors.  The maps are read-only; consumers that need to mutate
must copy, which keeps one worker's bug from corrupting every other
worker's input.

Recipe-keyed entries
--------------------

A key of the form ``namespace/name`` is *not* a content hash: it names
an entry by the recipe that produced it.  The Lab keeps each
instrumented run's trace under ``bundles/<recipe hash>``
(:func:`repro.engine.instrument.bundle_key`), so a warm run reads the
trace back instead of re-running the interpreter.  Such entries live in
their own subdirectory; :meth:`TraceStore.read` loads them into an owned
array (never a cached map — one read per run, no memmap kept alive), and
:meth:`TraceStore.scrub` validates them structurally only, since no
content hash exists to check them against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..robust.atomic import atomic_write

__all__ = ["StoreRef", "TraceStore", "trace_digest"]


def _canonical(arr: np.ndarray) -> np.ndarray:
    """The store's one true representation: contiguous little-endian int64."""
    return np.ascontiguousarray(np.asarray(arr), dtype="<i8")


def trace_digest(trace) -> str:
    """Content hash of a stream (or pass a digest string through).

    The shared currency between the store and the memo: computed once at
    publish time, it keys the store entry directly and feeds every memo
    key via the digest-accepting overloads in :mod:`repro.perf.memo`.
    """
    if isinstance(trace, str):
        return trace
    return hashlib.sha256(_canonical(trace).tobytes()).hexdigest()


@dataclass(frozen=True)
class StoreRef:
    """A picklable descriptor of one published stream.

    What actually crosses the process boundary when a store is attached:
    the content key plus the element count (so schedulers can reason
    about work size without touching the store).
    """

    key: str
    length: int

    @property
    def nbytes(self) -> int:
        """Size of the described stream's canonical representation."""
        return self.length * 8


class TraceStore:
    """Content-addressed, mmap-backed storage for int64 streams.

    Counters: ``puts`` / ``dup_puts`` split publishes into fresh writes
    and content-hash dedups; ``hits`` / ``misses`` split reads;
    ``bytes_written`` and ``bytes_mapped`` measure the disk and mmap
    traffic; ``corrupt_dropped`` counts entries unlinked by validation.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._maps: dict[str, np.ndarray] = {}
        self.puts = 0
        self.dup_puts = 0
        self.hits = 0
        self.misses = 0
        self.bytes_written = 0
        self.bytes_mapped = 0
        self.corrupt_dropped = 0

    def _path(self, key: str) -> Path:
        """Entry file of ``key``; a ``namespace/name`` key lands in the
        namespace's subdirectory."""
        return self.root / f"{key}.npy"

    # -- publish ------------------------------------------------------------

    def put(self, trace: np.ndarray, *, key: Optional[str] = None) -> str:
        """Publish a stream; returns its content key.

        Idempotent: an existing entry under the same key is trusted (the
        key *is* the content) and counted as ``dup_puts``.  The write is
        atomic, so a concurrent reader sees the complete old entry, the
        complete new one, or a miss — never a prefix.  Callers that
        already hold the stream's :func:`trace_digest` pass it as ``key``
        to skip rehashing (the memo-key paths do exactly this).
        """
        arr = _canonical(trace)
        if key is None:
            key = hashlib.sha256(arr.tobytes()).hexdigest()
        path = self._path(key)
        if key in self._maps or path.exists():
            self.dup_puts += 1
            return key
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path, binary=True) as fh:
            np.lib.format.write_array(fh, arr, allow_pickle=False)
        self.puts += 1
        self.bytes_written += arr.nbytes
        return key

    def ref(self, trace: np.ndarray, *, key: Optional[str] = None) -> StoreRef:
        """Publish a stream and return its dispatch descriptor."""
        arr = _canonical(trace)
        return StoreRef(self.put(arr, key=key), int(arr.shape[0]))

    # -- attach -------------------------------------------------------------

    def get(self, key: str) -> Optional[np.ndarray]:
        """Zero-copy read-only view of the entry, or None.

        A missing entry is a healthy miss; a corrupt one (bad magic,
        truncated payload, wrong dtype/shape) is unlinked and reported
        as a miss too — consumers must degrade to recomputation, exactly
        like a memo miss.
        """
        arr = self._maps.get(key)
        if arr is None:
            arr = self._load(key)
            if arr is None:
                self.misses += 1
                return None
            self._maps[key] = arr
        self.hits += 1
        self.bytes_mapped += arr.nbytes
        return arr

    def read(self, key: str) -> Optional[np.ndarray]:
        """The entry as an owned, writable array, or None; nothing is
        kept mapped.  Misses and corrupt entries behave as in :meth:`get`.

        For one-shot reads of recipe-keyed entries: a run reads each of
        them once, so a cached memmap would only hold pages alive.
        """
        arr = self._load(key, mmap_mode=None)
        if arr is None:
            self.misses += 1
            return None
        self.hits += 1
        return arr

    def discard(self, key: str) -> None:
        """Unlink an entry its consumer found invalid (counted in
        ``corrupt_dropped``)."""
        self._maps.pop(key, None)
        self._drop(self._path(key))

    def _load(self, key: str, mmap_mode: Optional[str] = "r") -> Optional[np.ndarray]:
        path = self._path(key)
        try:
            arr = np.load(path, mmap_mode=mmap_mode, allow_pickle=False)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, EOFError):
            self._drop(path)
            return None
        if arr.ndim != 1 or arr.dtype != np.dtype("<i8"):
            self._drop(path)
            return None
        return arr

    def _drop(self, path: Path) -> None:
        self.corrupt_dropped += 1
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass  # best-effort; the entry already lost.

    def resolve(self, trace):
        """The worker-side accessor: a :class:`StoreRef` becomes its
        mapped stream, anything else passes through as an array.

        Raises ``KeyError`` when a ref's entry is missing or corrupt —
        the caller (not the store) decides how to degrade, because only
        it may still hold the original bytes.
        """
        if isinstance(trace, StoreRef):
            arr = self.get(trace.key)
            if arr is None:
                raise KeyError(trace.key)
            return arr
        return np.asarray(trace)

    def contains(self, key: str) -> bool:
        return key in self._maps or self._path(key).exists()

    def verify(self, key: str) -> bool:
        """Recompute the entry's content hash against its key.

        Expensive (reads every byte); for scrubs and tests, not the hot
        path — ordinary reads trust the ``.npy`` structural validation.
        """
        arr = self._load(key)
        if arr is None:
            return False
        if trace_digest(np.asarray(arr)) != key:
            self._maps.pop(key, None)
            self._drop(self._path(key))
            return False
        return True

    def scrub(self) -> tuple[int, int]:
        """Validate every entry; returns ``(kept, dropped)``.

        Content-addressed entries are content-verified; recipe-keyed
        ones (``namespace/name``) are checked structurally, as a read
        would.  Also removes stray ``.tmp`` files from killed atomic
        writes.
        """
        if not self.root.exists():
            return (0, 0)
        kept = dropped = 0
        for path in sorted(self.root.glob("*/*")) + sorted(self.root.iterdir()):
            if path.suffix == ".tmp":
                path.unlink(missing_ok=True)
                continue
            if path.suffix != ".npy":
                continue
            key = path.relative_to(self.root).with_suffix("").as_posix()
            if "/" in key:
                ok = self._load(key) is not None
            else:
                ok = self.verify(key)
            kept += ok
            dropped += not ok
        return (kept, dropped)

    # -- introspection ------------------------------------------------------

    def counters(self) -> dict[str, int]:
        return {
            "puts": self.puts,
            "dup_puts": self.dup_puts,
            "hits": self.hits,
            "misses": self.misses,
            "bytes_written": self.bytes_written,
            "bytes_mapped": self.bytes_mapped,
            "corrupt_dropped": self.corrupt_dropped,
        }
