"""Instrumentation facade: program -> traces + index mapping.

The paper instruments LLVM IR, runs the test input, and records (a) the
trace of all functions and basic blocks and (b) a *mapping file* assigning
each code block an index.  Here the interpreter plays the role of the
instrumented run; this module packages its output in the same shape:

* a basic-block trace of dense gids,
* a function trace derived from it (one entry per dynamic block, giving the
  owning function's index — trimming collapses it to the paper's Def. 1
  function trace),
* the index mapping (gid -> qualified name, function index -> name).

Traces can be saved to / loaded from ``.npz`` files, standing in for the
paper's on-disk trace files.

The paper instruments each program once and reuses its trace files;
the Lab does the same through a :class:`~repro.perf.store.TraceStore`.
:func:`bundle_key` names an instrumented run by its *recipe* — the
workload spec after budget scaling, the input spec, and a salt hashing
the source of the IR, engine and workload packages (so any change to
program generation or interpretation invalidates every entry on its
own).  :func:`bundle_entry` flattens a run to one ``int64`` array (a
small header plus the block trace), and :func:`bundle_from_entry`
validates such an array against the freshly built module and rebuilds
the rest of the bundle from it — without running the interpreter.
"""

from __future__ import annotations

import functools
import hashlib
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..ir.module import Module
from ..robust.atomic import atomic_write
from ..robust.errors import ArtifactError
from .interpreter import RunResult, run
from .state import InputSpec

__all__ = [
    "TraceBundle",
    "bundle_entry",
    "bundle_from_entry",
    "bundle_key",
    "collect_trace",
    "load_bundle",
    "save_bundle",
]

#: bumped whenever the recipe-keyed entry layout changes.
BUNDLE_SCHEMA = "repro.engine.bundle.v1"

#: entry header: ``instr_count``, ``natural_exit``, ``n_blocks``.
_HEADER = 3

#: packages whose source decides what an instrumented run records.
_SALTED_PACKAGES = ("ir", "engine", "workloads")

#: arrays a serialized bundle must carry.
_BUNDLE_KEYS = (
    "program",
    "input_name",
    "bb_trace",
    "func_of_gid",
    "block_names",
    "function_names",
    "instr_count",
    "natural_exit",
)


@dataclass
class TraceBundle:
    """Everything the locality models need from one instrumented run."""

    program: str
    input_name: str
    #: dynamic basic-block trace (gids, execution order).
    bb_trace: np.ndarray
    #: per-dynamic-block owning-function indices (parallel to bb_trace).
    func_trace: np.ndarray
    #: gid -> "function:block"
    block_names: list[str]
    #: function index -> function name (indices follow module order).
    function_names: list[str]
    #: gid -> function index
    func_of_gid: np.ndarray
    #: total dynamic instructions executed.
    instr_count: int
    #: whether the run hit a natural exit (vs the block budget).
    natural_exit: bool

    @property
    def n_dynamic_blocks(self) -> int:
        return int(self.bb_trace.shape[0])

    @property
    def n_static_blocks(self) -> int:
        return len(self.block_names)


def _package(
    module: Module,
    spec: InputSpec,
    bb_trace: np.ndarray,
    instr_count: int,
    natural_exit: bool,
) -> TraceBundle:
    """A run's block trace plus everything derived from the module."""
    function_names = [f.name for f in module.functions]
    func_index = {name: i for i, name in enumerate(function_names)}
    func_of_gid = np.array(
        [func_index[name] for name in module.function_of_gid()], dtype=np.int32
    )
    block_names = [
        f"{b.func}:{b.name}" for b in (module.block_by_gid(g) for g in range(module.n_blocks))
    ]
    return TraceBundle(
        program=module.name,
        input_name=spec.name,
        bb_trace=bb_trace,
        func_trace=func_of_gid[bb_trace],
        block_names=block_names,
        function_names=function_names,
        func_of_gid=func_of_gid,
        instr_count=instr_count,
        natural_exit=natural_exit,
    )


def collect_trace(module: Module, spec: InputSpec) -> TraceBundle:
    """Run ``module`` under ``spec`` and package the instrumented output."""
    result: RunResult = run(module, spec)
    return _package(module, spec, result.bb_trace, result.instr_count, result.natural_exit)


@functools.cache
def code_salt() -> str:
    """SHA-256 over the source of every module under ``repro.ir``,
    ``repro.engine`` and ``repro.workloads`` (computed once per process)."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for package in _SALTED_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def bundle_key(workload, spec: InputSpec) -> str:
    """Recipe hash of one instrumented run.

    ``workload`` is the program's generator spec after budget scaling
    (``SuiteProgram.spec``); it and ``spec`` enter through their
    dataclass ``repr``, which is deterministic across processes.
    """
    recipe = f"{BUNDLE_SCHEMA}|{workload!r}|{spec!r}|{code_salt()}"
    return hashlib.sha256(recipe.encode()).hexdigest()


def bundle_entry(bundle: TraceBundle) -> np.ndarray:
    """One ``int64`` array: ``instr_count``, ``natural_exit``,
    ``n_blocks``, then the block trace."""
    header = np.array(
        [bundle.instr_count, int(bundle.natural_exit), bundle.n_static_blocks],
        dtype=np.int64,
    )
    return np.concatenate([header, bundle.bb_trace])


def bundle_from_entry(module: Module, spec: InputSpec, entry: np.ndarray) -> TraceBundle:
    """Rebuild the bundle :func:`bundle_entry` flattened, for ``module``
    run under ``spec``; bit-identical to :func:`collect_trace`.

    Raises :class:`~repro.robust.errors.ArtifactError` when the header is
    malformed, the entry was recorded for a module with a different
    block count, or a gid falls outside ``[0, n_blocks)``.
    """
    if entry.ndim != 1 or entry.shape[0] < _HEADER:
        raise ArtifactError("trace entry has no header", defect="short entry")
    instr_count, natural_exit, n_blocks = (int(v) for v in entry[:_HEADER])
    if instr_count < 0 or natural_exit not in (0, 1):
        raise ArtifactError("trace entry header is malformed", defect="bad header")
    if n_blocks != module.n_blocks:
        raise ArtifactError(
            f"trace entry has {n_blocks} blocks, module {module.name} has {module.n_blocks}",
            defect="block count mismatch",
        )
    trace = entry[_HEADER:]
    if trace.size and (int(trace.min()) < 0 or int(trace.max()) >= n_blocks):
        raise ArtifactError(
            f"trace entry references gids outside [0, {n_blocks})",
            defect="trace gid out of range",
        )
    # The interpreter emits int32 gids; keep the dtype a fresh run has.
    return _package(module, spec, trace.astype(np.int32), instr_count, bool(natural_exit))


def save_bundle(bundle: TraceBundle, path: str | Path) -> None:
    """Persist a bundle as a compressed ``.npz`` archive (atomically).

    Writing through :func:`repro.robust.atomic.atomic_write` guarantees a
    killed build leaves the previous ``trace.npz`` or none — never a
    truncated archive that a later :func:`load_bundle` chokes on.
    """
    with atomic_write(Path(path), binary=True) as fh:
        np.savez_compressed(
            fh,
            program=np.array(bundle.program),
            input_name=np.array(bundle.input_name),
            bb_trace=bundle.bb_trace,
            func_of_gid=bundle.func_of_gid,
            block_names=np.array(bundle.block_names),
            function_names=np.array(bundle.function_names),
            instr_count=np.array(bundle.instr_count),
            natural_exit=np.array(bundle.natural_exit),
        )


def load_bundle(path: str | Path) -> TraceBundle:
    """Load and validate a bundle written by :func:`save_bundle`.

    Raises :class:`~repro.robust.errors.ArtifactError` naming the path and
    defect when the archive is missing, truncated, not an npz, missing
    arrays, or internally inconsistent (non-integer trace, gids out of
    range of the mapping) — never a raw ``BadZipFile`` / ``KeyError`` /
    ``IndexError``.
    """
    path = Path(path)
    try:
        data = np.load(path, allow_pickle=False)
    except FileNotFoundError as err:
        raise ArtifactError(
            "trace bundle does not exist", path=path, defect="missing file", cause=err
        ) from err
    except (zipfile.BadZipFile, OSError, ValueError) as err:
        raise ArtifactError(
            "trace bundle is not a readable npz archive (truncated or corrupt)",
            path=path,
            defect="unreadable archive",
            cause=err,
        ) from err
    with data:
        missing = [k for k in _BUNDLE_KEYS if k not in data.files]
        if missing:
            raise ArtifactError(
                f"trace bundle is missing array(s): {', '.join(missing)}",
                path=path,
                defect=f"missing arrays {missing}",
            )
        try:
            bb_trace = data["bb_trace"]
            func_of_gid = data["func_of_gid"]
            program = str(data["program"])
            input_name = str(data["input_name"])
            block_names = [str(s) for s in data["block_names"]]
            function_names = [str(s) for s in data["function_names"]]
            instr_count = int(data["instr_count"])
            natural_exit = bool(data["natural_exit"])
        except (zipfile.BadZipFile, zlib.error, OSError, ValueError, TypeError) as err:
            raise ArtifactError(
                "trace bundle arrays are corrupt",
                path=path,
                defect="undecodable array payload",
                cause=err,
            ) from err
        if not np.issubdtype(bb_trace.dtype, np.integer):
            raise ArtifactError(
                f"trace bundle bb_trace has non-integer dtype {bb_trace.dtype}",
                path=path,
                defect="non-integer trace dtype",
            )
        n_static = int(func_of_gid.shape[0]) if func_of_gid.ndim else 0
        if bb_trace.size and (
            int(bb_trace.min()) < 0 or int(bb_trace.max()) >= n_static
        ):
            raise ArtifactError(
                f"trace bundle bb_trace references gids outside [0, {n_static})",
                path=path,
                defect="trace gid out of range of mapping",
            )
        return TraceBundle(
            program=program,
            input_name=input_name,
            bb_trace=bb_trace,
            func_trace=func_of_gid[bb_trace],
            block_names=block_names,
            function_names=function_names,
            func_of_gid=func_of_gid,
            instr_count=instr_count,
            natural_exit=natural_exit,
        )
