"""Recipe-keyed trace bundles: a Lab with a store instruments each run once.

The contract under test: a warm ``Lab.program`` (its runs already in the
store) equals a cold one field by field without calling the interpreter;
the recipe key misses whenever the code salt, the workload spec or the
input spec changes; every bad entry is dropped, counted and re-run; and
``bundle_from_entry`` rejects any malformed int64 entry with
``ArtifactError`` alone (fuzzed).
"""

import functools
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import instrument
from repro.engine.instrument import bundle_entry, bundle_from_entry, bundle_key
from repro.experiments import Lab
from repro.experiments import pipeline
from repro.perf.store import TraceStore
from repro.robust.errors import ArtifactError
from repro.workloads import ALL_PROGRAMS, build, get_program

#: small enough that every run sits at the Lab's block-budget floor.
SCALE = 0.01

BUNDLE_FIELDS = (
    "program",
    "input_name",
    "block_names",
    "function_names",
    "instr_count",
    "natural_exit",
)


def assert_same_bundle(got, want):
    for name in ("bb_trace", "func_trace", "func_of_gid"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    for name in BUNDLE_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


def refuse_interpreter(monkeypatch) -> None:
    """Make any further call to the interpreter from the Lab fail."""

    def refuse(module, spec):
        raise AssertionError(f"collect_trace({module.name}, {spec.name}) on a warm lab")

    monkeypatch.setattr(pipeline, "collect_trace", refuse)


def bundle_keys(store: TraceStore) -> list[str]:
    return sorted(p.stem for p in (store.root / "bundles").glob("*.npy"))


def prepare_both_runs(lab: Lab, name: str):
    """``lab.program(name)`` with its test run made too (the lab makes
    the optimizers' profile on its first use only)."""
    prepared = lab.program(name)
    prepared.test_bundle
    return prepared


@pytest.mark.parametrize("profile_source", ["trace", "static"])
def test_warm_program_equals_cold_for_every_suite_program(
    tmp_path, monkeypatch, profile_source
):
    cold = Lab(scale=SCALE, profile_source=profile_source)
    fill = Lab(scale=SCALE, profile_source=profile_source, store=TraceStore(tmp_path))
    wants = {name: prepare_both_runs(cold, name) for name in ALL_PROGRAMS}
    for name in ALL_PROGRAMS:
        prepare_both_runs(fill, name)

    refuse_interpreter(monkeypatch)
    warm = Lab(scale=SCALE, profile_source=profile_source, store=TraceStore(tmp_path))
    for name, want in wants.items():
        got = warm.program(name)
        assert_same_bundle(got.ref_bundle, want.ref_bundle)
        assert_same_bundle(got.test_bundle, want.test_bundle)
    # Static profiles are synthesized, so only the ref runs are stored.
    runs = 2 if profile_source == "trace" else 1
    assert warm.store.hits == runs * len(ALL_PROGRAMS)
    assert warm.store.misses == 0


def test_warm_lab_never_calls_collect_trace(tmp_path, monkeypatch):
    prepare_both_runs(Lab(scale=SCALE, store=TraceStore(tmp_path)), "syn-mcf")
    refuse_interpreter(monkeypatch)
    warm = Lab(scale=SCALE, store=TraceStore(tmp_path))
    prepare_both_runs(warm, "syn-mcf")
    assert (warm.store.hits, warm.store.misses, warm.store.puts) == (2, 0, 0)


def test_scrubbed_store_still_serves_bundles(tmp_path, monkeypatch):
    store = TraceStore(tmp_path)
    prepare_both_runs(Lab(scale=SCALE, store=store), "syn-mcf")
    store.put(np.arange(1000) % 7)  # one content-addressed entry beside them
    assert TraceStore(tmp_path).scrub() == (3, 0)
    refuse_interpreter(monkeypatch)
    prepare_both_runs(Lab(scale=SCALE, store=TraceStore(tmp_path)), "syn-mcf")


def test_scrub_checks_recipe_entries_structurally(tmp_path):
    store = TraceStore(tmp_path)
    store.put(np.arange(10), key="bundles/recipe-abc")
    (tmp_path / "bundles" / "recipe-bad.npy").write_bytes(b"garbage")
    assert store.scrub() == (1, 1)
    assert store.read("bundles/recipe-abc").tolist() == list(range(10))


class TestRecipeKey:
    def test_stable_across_processes(self):
        spec = get_program("syn-mcf").spec
        script = (
            "from repro.engine.instrument import bundle_key;"
            "from repro.workloads import get_program;"
            "s = get_program('syn-mcf').spec;"
            "print(bundle_key(s, s.ref_input()))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == bundle_key(spec, spec.ref_input())

    def test_workload_spec_input_spec_and_salt_each_change_the_key(self, monkeypatch):
        spec = get_program("syn-mcf").spec
        key = bundle_key(spec, spec.ref_input())
        assert bundle_key(replace(spec, ref_blocks=spec.ref_blocks + 1), spec.ref_input()) != key
        assert bundle_key(replace(spec, p_cold=spec.p_cold / 2), spec.ref_input()) != key
        assert bundle_key(spec, replace(spec.ref_input(), seed=1)) != key
        assert bundle_key(spec, spec.test_input()) != key
        monkeypatch.setattr(instrument, "code_salt", lambda: "0" * 64)
        assert bundle_key(spec, spec.ref_input()) != key

    def test_salt_covers_ir_engine_and_workloads_sources(self):
        salt = instrument.code_salt()
        assert len(salt) == 64 and salt == instrument.code_salt()

    def test_changed_salt_misses(self, tmp_path, monkeypatch):
        prepare_both_runs(Lab(scale=SCALE, store=TraceStore(tmp_path)), "syn-mcf")
        monkeypatch.setattr(instrument, "code_salt", lambda: "f" * 64)
        lab = Lab(scale=SCALE, store=TraceStore(tmp_path))
        prepare_both_runs(lab, "syn-mcf")
        assert (lab.store.hits, lab.store.misses, lab.store.puts) == (0, 2, 2)

    def test_changed_scale_misses(self, tmp_path):
        """A different budget scaling is a different WorkloadSpec."""
        prepare_both_runs(Lab(scale=0.05, store=TraceStore(tmp_path)), "syn-mcf")
        lab = Lab(scale=0.06, store=TraceStore(tmp_path))
        prepare_both_runs(lab, "syn-mcf")
        assert (lab.store.hits, lab.store.misses) == (0, 2)
        assert len(bundle_keys(lab.store)) == 4


def _ref_entry_path(store: TraceStore):
    spec = get_program("syn-mcf").spec
    lab = Lab(scale=SCALE)
    prog = lab.program("syn-mcf").prog
    key = bundle_key(prog.spec, prog.spec.ref_input())
    assert prog.spec != spec  # budget scaling reached the key
    return store.root / "bundles" / f"{key}.npy"


@pytest.mark.parametrize(
    "defect",
    ["garbage", "truncated", "gid-out-of-range", "negative-gid", "n-blocks-mismatch", "bad-header"],
)
def test_bad_entry_is_dropped_counted_and_recomputed(tmp_path, defect):
    cold = Lab(scale=SCALE, store=TraceStore(tmp_path)).program("syn-mcf")
    path = _ref_entry_path(TraceStore(tmp_path))
    entry = np.load(path)
    if defect == "garbage":
        path.write_bytes(b"not an npy file")
    elif defect == "truncated":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    else:
        bad = entry.copy()
        if defect == "gid-out-of-range":
            bad[3] = entry[2]
        elif defect == "negative-gid":
            bad[-1] = -1
        elif defect == "n-blocks-mismatch":
            bad[2] += 1
        else:
            bad[1] = 2  # natural_exit is 0 or 1
        np.save(path, bad)

    lab = Lab(scale=SCALE, store=TraceStore(tmp_path))
    got = lab.program("syn-mcf")
    assert_same_bundle(got.ref_bundle, cold.ref_bundle)
    assert lab.store.corrupt_dropped == 1
    assert lab.store.puts == 1  # the re-run was published again
    assert np.array_equal(np.load(path), entry)


def test_entry_layout():
    lab = Lab(scale=SCALE)
    bundle = lab.program("syn-mcf").ref_bundle
    entry = bundle_entry(bundle)
    assert entry.dtype == np.int64
    assert entry[:3].tolist() == [
        bundle.instr_count,
        int(bundle.natural_exit),
        bundle.n_static_blocks,
    ]
    assert np.array_equal(entry[3:], bundle.bb_trace)


def test_read_keeps_no_map(tmp_path):
    store = TraceStore(tmp_path)
    key = store.put(np.arange(50), key="bundles/abc")
    assert key == "bundles/abc"
    arr = store.read(key)
    assert arr.flags.writeable and not isinstance(arr, np.memmap)
    assert store._maps == {}
    assert store.read("bundles/missing") is None
    assert (store.hits, store.misses) == (1, 1)


@functools.cache
def _fuzz_target():
    """syn-mcf's module and ref input (built once; nothing is run)."""
    prog, module = build("syn-mcf")
    return module, prog.spec.ref_input()


def _malformed_entries():
    """int64 entries with every header and trace defect, valid ones among
    them: short, 2-D, bad header values, wrong block counts, and gids
    below 0 or at/after ``n_blocks``."""
    module, _ = _fuzz_target()
    nb = module.n_blocks
    big = st.integers(-(2**63), 2**63 - 1)
    header = st.tuples(
        st.one_of(st.integers(-3, 10**6), big),
        st.one_of(st.integers(-2, 3), big),
        st.one_of(st.sampled_from([nb, nb - 1, nb + 1, 0, -1]), big),
    )
    trace = st.lists(st.one_of(st.integers(-3, nb + 3), big), max_size=40)
    flat = st.builds(lambda h, t: np.array([*h, *t], dtype=np.int64), header, trace)
    short = st.lists(big, max_size=2).map(lambda v: np.array(v, dtype=np.int64))
    two_d = flat.map(lambda e: np.stack([e, e]))
    return st.one_of(flat, short, two_d)


@settings(max_examples=300, deadline=None)
@given(_malformed_entries())
def test_bundle_from_entry_raises_only_artifact_error(entry):
    """Whatever int64 array the store hands back, rebuilding a bundle
    either succeeds on a well-formed entry or raises ArtifactError."""
    module, spec = _fuzz_target()
    nb = module.n_blocks
    trace = entry[3:] if entry.ndim == 1 else entry
    valid = (
        entry.ndim == 1
        and entry.shape[0] >= 3
        and entry[0] >= 0
        and entry[1] in (0, 1)
        and entry[2] == nb
        and bool(np.all((trace >= 0) & (trace < nb)))
    )
    try:
        bundle = bundle_from_entry(module, spec, entry)
    except ArtifactError:
        assert not valid
    else:
        assert valid
        assert np.array_equal(bundle.bb_trace, entry[3:])
        assert bundle.instr_count == entry[0] and bundle.natural_exit == bool(entry[1])
