"""Zero-copy trace store (repro.perf.store) + store-backed parity.

The contract under test: the store is a transport optimization only.
Publishing streams as mmap-backed entries and shipping StoreRef
descriptors must never change a simulated result, and any damage to the
on-disk entries must surface as a recomputable miss — never as wrong
data.
"""

import io
import pickle
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.experiments import Lab
from repro.experiments.runner import run_suite
from repro.perf import (
    StoreRef,
    TraceStore,
    compare_journal_outcomes,
    histogram_key,
    memo_key,
    trace_digest,
)
from repro.robust import RunJournal

IDS = ["ablation-optimal-gap", "ablation-pruning"]


def _strip_timings(text: str) -> str:
    return re.sub(r"\[\d+\.\d+s(, \d+ attempt\(s\))?\]", "[T]", text)


class TestRoundTrip:
    def test_put_get_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = np.arange(1000, dtype=np.int64) % 37
        key = store.put(trace)
        got = store.get(key)
        np.testing.assert_array_equal(np.asarray(got), trace)
        assert store.puts == 1 and store.hits == 1

    def test_canonicalizes_dtype_and_lists(self, tmp_path):
        store = TraceStore(tmp_path)
        as_i32 = np.array([5, 3, 5, 8], dtype=np.int32)
        as_list = [5, 3, 5, 8]
        key = store.put(as_i32)
        assert store.put(np.asarray(as_list)) == key  # same content, same key
        got = store.get(key)
        assert got.dtype == np.dtype("<i8")
        np.testing.assert_array_equal(np.asarray(got), [5, 3, 5, 8])

    def test_views_are_read_only(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.put(np.array([1, 2, 3], dtype=np.int64))
        got = store.get(key)
        with pytest.raises((ValueError, TypeError)):
            got[0] = 99

    def test_duplicate_put_is_deduped(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = np.array([7, 7, 7], dtype=np.int64)
        k1 = store.put(trace)
        k2 = store.put(trace.copy())
        assert k1 == k2
        assert store.puts == 1 and store.dup_puts == 1
        assert len(list(tmp_path.glob("*.npy"))) == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.misses == 1 and store.corrupt_dropped == 0


class TestKeyUnification:
    """One digest keys the store entry AND every memo entry."""

    def test_digest_passthrough(self):
        trace = np.array([4, 1, 4, 1], dtype=np.int64)
        digest = trace_digest(trace)
        assert trace_digest(digest) == digest
        assert len(digest) == 64

    def test_store_key_is_the_digest(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = np.arange(64, dtype=np.int64)
        assert store.put(trace) == trace_digest(trace)

    def test_memo_keys_accept_digest(self):
        from repro.cache import PAPER_L1I

        trace = np.array([2, 9, 2, 9, 5], dtype=np.int64)
        digest = trace_digest(trace)
        assert histogram_key(trace, 64) == histogram_key(digest, 64)
        assert memo_key(trace, PAPER_L1I) == memo_key(digest, PAPER_L1I)

    def test_precomputed_key_skips_rehash(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = np.arange(32, dtype=np.int64)
        digest = trace_digest(trace)
        ref = store.ref(trace, key=digest)
        assert ref.key == digest
        assert ref.length == 32
        np.testing.assert_array_equal(np.asarray(store.resolve(ref)), trace)


class TestStoreRef:
    def test_descriptor_is_small(self):
        ref = StoreRef("a" * 64, 10**9)
        assert len(pickle.dumps(ref)) < 200  # descriptor, not payload
        assert ref.nbytes == 8 * 10**9

    def test_resolve_passthrough_for_arrays(self, tmp_path):
        store = TraceStore(tmp_path)
        arr = np.array([1, 2], dtype=np.int64)
        np.testing.assert_array_equal(store.resolve(arr), arr)

    def test_resolve_missing_entry_raises(self, tmp_path):
        store = TraceStore(tmp_path)
        with pytest.raises(KeyError):
            store.resolve(StoreRef("b" * 64, 4))


class TestCorruption:
    def _published(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.put(np.arange(256, dtype=np.int64))
        return store, key

    def test_garbled_entry_dropped_and_unlinked(self, tmp_path):
        store, key = self._published(tmp_path)
        path = tmp_path / f"{key}.npy"
        path.write_bytes(b"not an npy file at all")
        fresh = TraceStore(tmp_path)  # no warm map cache
        assert fresh.get(key) is None
        assert fresh.corrupt_dropped == 1 and fresh.misses == 1
        assert not path.exists()

    def test_truncated_entry_dropped(self, tmp_path):
        store, key = self._published(tmp_path)
        path = tmp_path / f"{key}.npy"
        path.write_bytes(path.read_bytes()[:100])
        fresh = TraceStore(tmp_path)
        assert fresh.get(key) is None
        assert fresh.corrupt_dropped == 1

    def test_wrong_dtype_rejected(self, tmp_path):
        store = TraceStore(tmp_path)
        key = "c" * 64
        store.root.mkdir(parents=True, exist_ok=True)
        np.save(tmp_path / f"{key}.npy", np.zeros(8, dtype=np.float64))
        assert store.get(key) is None
        assert store.corrupt_dropped == 1

    def test_wrong_shape_rejected(self, tmp_path):
        store = TraceStore(tmp_path)
        key = "d" * 64
        store.root.mkdir(parents=True, exist_ok=True)
        np.save(tmp_path / f"{key}.npy", np.zeros((4, 4), dtype=np.int64))
        assert store.get(key) is None
        assert store.corrupt_dropped == 1

    def test_verify_catches_content_swap(self, tmp_path):
        # A structurally valid .npy whose bytes no longer match the key:
        # invisible to the fast path, caught by the content scrub.
        store, key = self._published(tmp_path)
        np.save(tmp_path / f"{key}.npy", np.arange(9, dtype=np.int64))
        fresh = TraceStore(tmp_path)
        assert fresh.verify(key) is False
        assert not (tmp_path / f"{key}.npy").exists()

    def test_scrub_keeps_good_drops_bad(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(np.arange(16, dtype=np.int64))
        bad_key = store.put(np.arange(99, dtype=np.int64))
        np.save(tmp_path / f"{bad_key}.npy", np.ones(3, dtype=np.int64))
        (tmp_path / "leftover.npy.tmp").write_bytes(b"killed writer debris")
        fresh = TraceStore(tmp_path)
        assert fresh.scrub() == (1, 1)
        assert not (tmp_path / "leftover.npy.tmp").exists()


def _publish_and_read(root):
    """Cross-process exercise: every process publishes the same streams
    (racing on identical keys) and reads back what it published."""
    store = TraceStore(root)
    rng = np.random.default_rng(7)  # same streams in every process
    out = []
    for _ in range(4):
        trace = rng.integers(0, 500, 3000).astype(np.int64)
        ref = store.ref(trace)
        got = np.asarray(store.resolve(ref))
        out.append((ref.key, int(got.sum())))
    return out


class TestConcurrentAccess:
    def test_racing_publishers_and_readers_agree(self, tmp_path):
        with ProcessPoolExecutor(max_workers=3) as pool:
            results = list(pool.map(_publish_and_read, [str(tmp_path)] * 3))
        # Same content everywhere: identical keys, identical sums, and
        # exactly one on-disk entry per distinct stream.
        assert results[0] == results[1] == results[2]
        keys = {k for run in results for (k, _) in run}
        assert len(list(tmp_path.glob("*.npy"))) == len(keys) == 4


class TestStoreParity:
    """The acceptance gate: store-backed runs change nothing but bytes."""

    CELLS = [
        ("syn-gcc", "baseline", "hw"),
        ("syn-gcc", "baseline", "sim"),
        ("syn-mcf", "baseline", "hw"),
        ("syn-mcf", "baseline", "sim"),
    ]

    def test_lab_cells_match_serial_storeless(self, tmp_path):
        stored = Lab(scale=0.05, jobs=2, store=TraceStore(tmp_path / "store"))
        with stored:
            stored.precompute_solo(self.CELLS)
            plain = Lab(scale=0.05)
            for name, layout, channel in self.CELLS:
                assert stored.solo_miss(name, layout, channel) == plain.solo_miss(
                    name, layout, channel
                ), (name, layout, channel)
        assert stored.counters["store_bytes_shipped"] > 0
        assert stored.store.puts > 0

    def test_ref_bytes_orders_of_magnitude_below_mapped(self, tmp_path):
        lab = Lab(scale=0.05, jobs=2, store=TraceStore(tmp_path / "store"))
        with lab:
            lab.precompute_solo(self.CELLS)
        shipped = lab.counters["store_bytes_shipped"]
        mapped = lab.counters["store_bytes_mapped"]
        assert mapped >= 10 * shipped  # the ISSUE's >=10x reduction gate

    def test_journal_parity_with_store(self, tmp_path):
        def run(tag, *, jobs, store):
            lab = Lab(scale=0.05, noise_sigma=0.0, store=store)
            journal = RunJournal(tmp_path / f"{tag}.jsonl")
            out = io.StringIO()
            with lab:
                outcomes = run_suite(
                    lab, IDS, journal=journal, out=out, jobs=jobs, keep_going=True
                )
            return outcomes, journal, out.getvalue()

        serial, js, text_s = run("serial", jobs=1, store=None)
        stored, jp, text_p = run(
            "stored", jobs=2, store=TraceStore(tmp_path / "store")
        )
        assert _strip_timings(text_s) == _strip_timings(text_p)
        assert [o.status for o in serial] == [o.status for o in stored]
        assert [o.result.to_text() for o in serial] == [
            o.result.to_text() for o in stored
        ]
        assert compare_journal_outcomes(
            [vars(e) for e in js.entries()], [vars(e) for e in jp.entries()]
        ) == []
