"""Core intermediate-representation types.

The paper's compiler substrate is LLVM; its locality models and layout
transforms only interact with three properties of the program:

1. the *identity* of code blocks (functions and basic blocks),
2. their *dynamic execution order* (the instrumented trace), and
3. their *encoded size* (how many cache lines a block occupies).

This module defines a miniature IR that exposes exactly those surfaces.  A
:class:`Module` owns :class:`Function` objects; each function owns
:class:`BasicBlock` objects.  A basic block is ``n_instr`` straight-line
instructions followed by one :class:`Terminator`.  Terminators carry enough
behavioural parameters (branch probabilities, loop trip counts, callees) for
the deterministic interpreter in :mod:`repro.engine` to produce realistic,
seeded instruction traces.

Block identity
--------------
Every block has a *local* name unique within its function and a *global id*
(:attr:`BasicBlock.gid`) assigned when the module is sealed.  Global ids are
dense integers, used throughout the trace and locality machinery as compact
block handles (the paper's "mapping file" that assigns each block an index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .exectable import ExecTable

__all__ = [
    "INSTRUCTION_BYTES",
    "Terminator",
    "Jump",
    "Branch",
    "Switch",
    "Call",
    "Return",
    "Exit",
    "LoopBranch",
    "BasicBlock",
    "DataAccess",
    "Function",
    "Module",
    "BlockRef",
]

#: Encoded size of one instruction, in bytes.  A fixed-width 4-byte encoding
#: (RISC-like) keeps the size model trivial to reason about; the cache
#: simulator only cares about byte extents.
INSTRUCTION_BYTES = 4


class Terminator:
    """Base class for block terminators.

    A terminator is the single control-transfer instruction ending a basic
    block.  It contributes one instruction to the block's encoded size
    (callers construct blocks with ``n_instr`` counting the terminator).
    """

    #: Local block names this terminator may transfer control to within the
    #: same function.  Populated by subclasses.
    def local_targets(self) -> tuple[str, ...]:
        return ()

    #: Name of the callee function, if this terminator is a call.
    def callee(self) -> Optional[str]:
        return None

    def fallthrough_target(self) -> Optional[str]:
        """Local block that execution continues at when no branch is taken.

        This is the block that benefits from being laid out adjacently: if
        the layout places it immediately after this block, no explicit jump
        instruction is required.  ``None`` means the terminator never falls
        through (e.g. :class:`Return`, :class:`Exit`, :class:`Switch`).
        """
        return None


@dataclass(frozen=True)
class Jump(Terminator):
    """Unconditional transfer to ``target`` in the same function."""

    target: str

    def local_targets(self) -> tuple[str, ...]:
        return (self.target,)

    def fallthrough_target(self) -> Optional[str]:
        return self.target


@dataclass(frozen=True)
class Branch(Terminator):
    """Two-way conditional branch.

    ``taken_prob`` is the probability of transferring to ``then``; the
    interpreter draws from its seeded RNG.  An optional phase modulation
    (``phase_prob``, ``phase_period``) switches the probability to
    ``phase_prob`` during odd phases of length ``phase_period`` dynamic
    blocks, producing the program-phase behaviour that makes test/ref input
    profiles differ.
    """

    then: str
    orelse: str
    taken_prob: float = 0.5
    phase_prob: Optional[float] = None
    phase_period: int = 0

    def local_targets(self) -> tuple[str, ...]:
        return (self.then, self.orelse)

    def fallthrough_target(self) -> Optional[str]:
        # Convention: the not-taken (else) side is the fall-through path,
        # as emitted by every mainstream compiler.
        return self.orelse


@dataclass(frozen=True)
class Switch(Terminator):
    """Multi-way transfer; ``weights`` give the relative target frequencies."""

    targets: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.targets) != len(self.weights):
            raise ValueError("switch targets and weights must align")
        if len(self.targets) == 0:
            raise ValueError("switch needs at least one target")

    def local_targets(self) -> tuple[str, ...]:
        return self.targets


@dataclass(frozen=True)
class Call(Terminator):
    """Call ``func``; execution resumes at ``return_to`` in this function."""

    func: str
    return_to: str

    def local_targets(self) -> tuple[str, ...]:
        return (self.return_to,)

    def callee(self) -> Optional[str]:
        return self.func

    def fallthrough_target(self) -> Optional[str]:
        return self.return_to


@dataclass(frozen=True)
class Return(Terminator):
    """Return control to the caller."""


@dataclass(frozen=True)
class Exit(Terminator):
    """Terminate the program."""


@dataclass(frozen=True)
class LoopBranch(Terminator):
    """Counted back-edge.

    Executes the back edge to ``back`` exactly ``trips - 1`` times, then
    exits to ``exit_to`` and resets, so one *visit* to the enclosing loop
    runs the body ``trips`` times.  Counters are per dynamic loop entry
    (maintained by the interpreter), so nested and recursive uses behave
    naturally.
    """

    back: str
    exit_to: str
    trips: int

    def __post_init__(self) -> None:
        if self.trips < 1:
            raise ValueError("loop trip count must be >= 1")

    def local_targets(self) -> tuple[str, ...]:
        return (self.back, self.exit_to)

    def fallthrough_target(self) -> Optional[str]:
        return self.exit_to


@dataclass(frozen=True)
class DataAccess:
    """Data-side memory behaviour of one basic block (for Eq. 1 studies).

    Executing the block touches ``n_lines`` data cache lines per run,
    chosen by ``mode``:

    * ``"local"``  — round-robin over a small per-function region of
      ``region_lines`` lines (stack slots, hot locals: high reuse);
    * ``"stream"`` — a sequential walk through a ``region_lines``-line
      region, advancing each execution (array traversal: low reuse);
    * ``"shared"`` — a fixed set of hot global lines (very high reuse).

    Blocks without a :class:`DataAccess` issue no data references — the
    instruction-cache experiments are unaffected by this field.
    """

    mode: str
    n_lines: int = 1
    region_lines: int = 64

    def __post_init__(self) -> None:
        if self.mode not in ("local", "stream", "shared"):
            raise ValueError(f"unknown data access mode {self.mode!r}")
        if self.n_lines < 1 or self.region_lines < 1:
            raise ValueError("n_lines and region_lines must be positive")


@dataclass
class BasicBlock:
    """A straight-line run of ``n_instr`` instructions plus a terminator.

    ``n_instr`` counts the terminator, so the encoded size of the block in
    the *original* layout is ``n_instr * INSTRUCTION_BYTES``.  Layout
    transforms may add explicit jump instructions; those are recorded in the
    address map, not here (the IR stays layout-independent).
    """

    name: str
    n_instr: int
    terminator: Terminator
    #: optional data-side behaviour (loads/stores) of the block.
    data: Optional[DataAccess] = None
    #: Dense module-wide id; assigned by :meth:`Module.seal`.
    gid: int = field(default=-1, compare=False)
    #: Owning function name; assigned by :meth:`Module.seal`.
    func: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.n_instr < 1:
            raise ValueError("a basic block holds at least its terminator")

    @property
    def size_bytes(self) -> int:
        """Encoded size without layout-added jumps."""
        return self.n_instr * INSTRUCTION_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BasicBlock({self.func}:{self.name}, n={self.n_instr}, gid={self.gid})"


@dataclass(frozen=True)
class BlockRef:
    """A fully-qualified block reference ``function:block``."""

    func: str
    block: str

    def __str__(self) -> str:
        return f"{self.func}:{self.block}"


class Function:
    """An ordered collection of basic blocks; the first block is the entry."""

    def __init__(self, name: str, blocks: Sequence[BasicBlock]):
        if not blocks:
            raise ValueError(f"function {name!r} has no blocks")
        names = [b.name for b in blocks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate block names in function {name!r}")
        self.name = name
        self.blocks: list[BasicBlock] = list(blocks)
        self._by_name = {b.name: b for b in self.blocks}

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def block(self, name: str) -> BasicBlock:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def n_instr(self) -> int:
        """Total static instruction count of the function."""
        return sum(b.n_instr for b in self.blocks)

    @property
    def size_bytes(self) -> int:
        """Encoded size without layout-added jumps."""
        return self.n_instr * INSTRUCTION_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Function({self.name}, blocks={len(self.blocks)})"


class Module:
    """A whole program: functions plus a designated entry function.

    After construction a module must be :meth:`sealed <seal>` before use;
    sealing assigns dense global block ids in declaration order (the paper's
    index mapping) and freezes the function list.
    """

    def __init__(self, name: str, functions: Sequence[Function], entry: str = "main"):
        fnames = [f.name for f in functions]
        if len(set(fnames)) != len(fnames):
            raise ValueError("duplicate function names in module")
        if entry not in fnames:
            raise ValueError(f"entry function {entry!r} not defined")
        self.name = name
        self.functions: list[Function] = list(functions)
        self.entry = entry
        self._by_name = {f.name: f for f in self.functions}
        self._sealed = False
        self._blocks_by_gid: list[BasicBlock] = []
        self._exec_table: Optional["ExecTable"] = None

    # -- construction -----------------------------------------------------

    def seal(self) -> "Module":
        """Assign global block ids and mark the module immutable.

        Idempotent; returns ``self`` for chaining.  Every call drops the
        :attr:`exec_table`, so sealing again after mutating a block's
        terminator rebuilds it on next use.
        """
        self._exec_table = None
        if self._sealed:
            return self
        gid = 0
        self._blocks_by_gid = []
        for func in self.functions:
            for block in func.blocks:
                block.gid = gid
                block.func = func.name
                self._blocks_by_gid.append(block)
                gid += 1
        self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        return self._sealed

    def _require_sealed(self) -> None:
        if not self._sealed:
            raise RuntimeError("module must be sealed before use")

    # -- lookups ----------------------------------------------------------

    def function(self, name: str) -> Function:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def exec_table(self) -> "ExecTable":
        """The per-gid :class:`~repro.ir.exectable.ExecTable` of this
        sealed module, built on first use."""
        self._require_sealed()
        if self._exec_table is None:
            from .exectable import ExecTable

            self._exec_table = ExecTable.build(self)
        return self._exec_table

    def block_by_gid(self, gid: int) -> BasicBlock:
        self._require_sealed()
        return self._blocks_by_gid[gid]

    def block(self, ref: BlockRef) -> BasicBlock:
        return self._by_name[ref.func].block(ref.block)

    def iter_blocks(self) -> Iterator[BasicBlock]:
        for func in self.functions:
            yield from func.blocks

    # -- metrics ----------------------------------------------------------

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    @property
    def n_blocks(self) -> int:
        return sum(len(f) for f in self.functions)

    @property
    def n_instr(self) -> int:
        return sum(f.n_instr for f in self.functions)

    @property
    def size_bytes(self) -> int:
        """Static code size in the original layout, without added jumps."""
        return self.n_instr * INSTRUCTION_BYTES

    def block_sizes(self) -> list[int]:
        """Encoded byte size of every block, indexed by gid."""
        self._require_sealed()
        return [b.size_bytes for b in self._blocks_by_gid]

    def function_of_gid(self) -> list[str]:
        """Owning function name for every block, indexed by gid."""
        self._require_sealed()
        return [b.func for b in self._blocks_by_gid]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Module({self.name}, functions={self.n_functions}, "
            f"blocks={self.n_blocks}, bytes={self.size_bytes})"
        )
