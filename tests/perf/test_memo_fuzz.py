"""Fuzz the memo's ``.npz`` entry reader and ``scrub`` with malformed entries.

Every malformed payload — bytes that are no zip, a truncated zip, a
missing array or schema tag, a wrong dtype, shape or schema, an object
array — must become a dropped entry plus a recompute, and ``scrub``
must drop it; neither may raise.
"""

import io
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import PAPER_L1I
from repro.perf import SimMemo, affinity_key, histogram_key, memo_key, trg_key
from repro.perf.memo import (
    ANALYSIS_SCHEMA,
    CURVE_SCHEMA,
    KERNEL_SCHEMA,
    SCHEMA,
    curve_key,
)

from .memo_entries import lab_curve, read_entry

_rng = np.random.default_rng(5)
LINES = _rng.integers(0, 500, 3000)
TRACE = _rng.integers(0, 30, 800)

#: kind -> (memo key, memoized lookup on a SimMemo).
KINDS = {
    "stats": (memo_key(LINES, PAPER_L1I), lambda memo: memo.simulate(LINES, PAPER_L1I)),
    "histogram": (histogram_key(LINES, 64), lambda memo: memo.histogram(LINES, 64)),
    "curve": (curve_key(LINES), lambda memo: lab_curve(memo, LINES)),
    "affinity": (
        affinity_key(TRACE, w_max=6),
        lambda memo: memo.affinity_coverage(TRACE, w_max=6),
    ),
    "trg": (trg_key(TRACE), lambda memo: memo.trg(TRACE)),
}
SCHEMAS = {SCHEMA, KERNEL_SCHEMA, CURVE_SCHEMA, ANALYSIS_SCHEMA}


def comparable(value):
    """A lookup result in a form ``==`` compares exactly."""
    if hasattr(value, "fp"):
        return (value.n, value.m, value.fp.tobytes())
    return value


@pytest.fixture(scope="module")
def entries():
    """kind -> (valid entry bytes, fresh lookup result)."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        memo = SimMemo(tmp)
        for kind, (key, lookup) in KINDS.items():
            fresh = lookup(memo)
            out[kind] = ((Path(tmp) / f"{key}.npz").read_bytes(), comparable(fresh))
    return out


def _npz(arrays: dict) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)  # object arrays are pickled into the archive
    return buf.getvalue()


def _mutate(valid: bytes, data) -> bytes:
    """One malformed variant of a valid entry, drawn by hypothesis."""
    arrays = read_entry(io.BytesIO(valid))
    names = sorted(arrays)
    how = data.draw(
        st.sampled_from(
            ["bytes", "truncate", "drop", "dtype", "shape", "schema", "object"]
        )
    )
    if how == "bytes":
        return data.draw(st.binary(max_size=256))
    if how == "truncate":
        return valid[: data.draw(st.integers(0, len(valid) - 1))]
    name = data.draw(st.sampled_from(names))
    arr = arrays[name]
    if how == "drop":
        del arrays[name]
    elif how == "dtype":
        target = data.draw(st.sampled_from(["float64", "int32", "uint64", "U8", "bool"]))
        if arr.dtype.kind == np.dtype(target).kind:
            target = "U8" if arr.dtype.kind != "U" else "float64"
        arrays[name] = arr.astype(target) if arr.dtype.kind != "U" else np.zeros(arr.shape, target)
    elif how == "shape":
        extra_axis = data.draw(st.booleans()) or arr.ndim == 0
        arrays[name] = arr[None] if extra_axis else arr.reshape(-1)[:, None, None]
    elif how == "schema":
        tag = data.draw(st.text(max_size=40).filter(lambda t: t not in SCHEMAS))
        arrays["schema"] = np.array(tag)
    else:
        arrays[name] = np.array([arr, "x"], dtype=object)
    return _npz(arrays)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(kind=st.sampled_from(sorted(KINDS)), data=st.data())
def test_malformed_entry_is_dropped_and_recomputed(entries, kind, data):
    valid, fresh = entries[kind]
    bad = _mutate(valid, data)
    key, lookup = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{key}.npz"
        path.write_bytes(bad)
        memo = SimMemo(tmp)
        assert comparable(lookup(memo)) == fresh
        assert (memo.hits, memo.misses) == (0, 1)
        assert path.read_bytes() == valid  # replaced by the recomputed entry

        path.write_bytes(bad)
        assert SimMemo(tmp).scrub() == (0, 1)
        assert not path.exists()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(kind=st.sampled_from(["affinity", "trg"]), data=st.data())
def test_unsorted_or_repeated_pairs_are_dropped(entries, kind, data):
    """Pair rows out of ``(x, y)`` order, or one row twice, make a
    well-typed entry that decoding rejects with ``ValueError`` alone; the
    lookup drops it and recomputes."""
    from repro.core import TRG, AffinityCoverage

    valid, fresh = entries[kind]
    arrays = read_entry(io.BytesIO(valid))
    rows, cols = ("edges", ["weights"]) if kind == "trg" else ("pairs", ["cov"])
    n = arrays[rows].shape[0]
    if data.draw(st.booleans()):
        order = data.draw(st.permutations(range(n)).filter(lambda p: p != sorted(p)))
    else:
        i = data.draw(st.integers(0, n - 1))
        order = sorted([*range(n), i])
    for name in (rows, *cols):
        arrays[name] = arrays[name][order]
    codec = TRG if kind == "trg" else AffinityCoverage
    with pytest.raises(ValueError):
        codec.from_arrays(arrays)
    key, lookup = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{key}.npz"
        path.write_bytes(_npz(arrays))
        memo = SimMemo(tmp)
        assert comparable(lookup(memo)) == fresh
        assert (memo.hits, memo.misses) == (0, 1)
        assert path.read_bytes() == valid


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_valid_entries_survive_scrub(entries, kind):
    valid, fresh = entries[kind]
    key, lookup = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / f"{key}.npz").write_bytes(valid)
        assert SimMemo(tmp).scrub() == (1, 0)
        memo = SimMemo(tmp)
        assert comparable(lookup(memo)) == fresh
        assert (memo.hits, memo.misses) == (1, 0)


@pytest.mark.parametrize(
    "payload",
    [b"[1, 2]", b'{"schema": "repro.perf.memo.curve.v1", "fp": [0.0]}', b""],
    ids=["json-list", "old-json-entry", "empty"],
)
def test_json_and_empty_files_degrade(tmp_path, payload):
    """A JSON list used to crash the curve lookup and ``scrub`` with
    ``AttributeError``; now it is a dropped entry."""
    path = tmp_path / f"{curve_key(LINES)}.npz"
    path.write_bytes(payload)
    assert SimMemo(tmp_path).scrub() == (0, 1)
    path.write_bytes(payload)
    memo = SimMemo(tmp_path)
    lab_curve(memo, LINES)
    assert (memo.hits, memo.misses) == (0, 1)


def test_npy_instead_of_npz_is_dropped(tmp_path):
    path = tmp_path / f"{curve_key(LINES)}.npz"
    np.save(tmp_path / "plain.npy", np.arange(4))
    path.write_bytes((tmp_path / "plain.npy").read_bytes())
    memo = SimMemo(tmp_path)
    lab_curve(memo, LINES)
    assert memo.misses == 1
    assert zipfile.is_zipfile(path)


def _reversed_rows(valid: bytes) -> bytes:
    """A TRG entry with its edge rows (and their weights) in reverse
    order: every array keeps its dtype and shape, only decoding fails."""
    arrays = read_entry(io.BytesIO(valid))
    arrays["edges"] = arrays["edges"][::-1]
    arrays["weights"] = arrays["weights"][::-1]
    return _npz(arrays)


def test_scrub_drops_reversed_trg_edge_rows(entries):
    valid, _ = entries["trg"]
    key, _ = KINDS["trg"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{key}.npz"
        path.write_bytes(_reversed_rows(valid))
        assert SimMemo(tmp).scrub() == (0, 1)
        assert not path.exists()


def _served(kind: str, payload: bytes) -> bool:
    """Whether a lookup of ``kind`` serves ``payload`` as a hit."""
    key, lookup = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / f"{key}.npz").write_bytes(payload)
        memo = SimMemo(tmp)
        lookup(memo)
        return memo.hits == 1


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_scrub_keeps_what_a_lookup_serves(entries, data):
    """For a directory of good and bad entries, ``scrub`` keeps exactly
    the entries a lookup of their own kind would serve."""
    payloads = {}
    for kind in sorted(KINDS):
        valid, _ = entries[kind]
        how = data.draw(st.sampled_from(["absent", "valid", "malformed", "reversed"]))
        if how == "valid":
            payloads[kind] = valid
        elif how == "malformed":
            payloads[kind] = _mutate(valid, data)
        elif how == "reversed" and kind == "trg":
            payloads[kind] = _reversed_rows(valid)
    with tempfile.TemporaryDirectory() as tmp:
        for kind, payload in payloads.items():
            (Path(tmp) / f"{KINDS[kind][0]}.npz").write_bytes(payload)
        kept, dropped = SimMemo(tmp).scrub()
        survivors = {p.stem for p in Path(tmp).glob("*.npz")}
    served = {KINDS[kind][0] for kind, payload in payloads.items() if _served(kind, payload)}
    assert survivors == served
    assert (kept, dropped) == (len(served), len(payloads) - len(served))
