"""Layout-integrity audits, shared by the linter and the IR transforms.

The paper's post-processing step is "responsible for sanity check, residual
code elimination and other cleanup work"; before this module existed the
sanity checks were scattered across :mod:`repro.ir.transforms` as bare
``ValueError`` strings and ``AssertionError`` guards.  Centralizing them
here gives one source of truth: the transforms call the same audit
functions as the L006 ``layout-integrity`` lint rule, so a bad gid order
produces the *identical* diagnostic text whether it is rejected eagerly by
``reorder_basic_blocks`` or reported lazily by ``python -m repro.lint``.

Only :mod:`repro.ir.module` is imported (never the :mod:`repro.ir` package
itself) so the transforms can import this module while ``repro.ir`` is
still initializing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..ir.module import INSTRUCTION_BYTES, Module
from ..robust.errors import ReproError
from .diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.codegen import AddressMap
    from .context import LintContext

__all__ = [
    "RULE_INTEGRITY",
    "LayoutError",
    "audit_gid_order",
    "audit_function_order",
    "audit_address_map",
    "layout_integrity",
    "raise_on_errors",
]

#: Rule id shared by these audits and the rule-pack registration.
RULE_INTEGRITY = "L006"


class LayoutError(ReproError, ValueError):
    """A layout order or address map violates a structural invariant.

    Part of the :class:`~repro.robust.errors.ReproError` taxonomy (so
    batch pipelines can triage it alongside ``ProfileError`` /
    ``ArtifactError``), and still a :class:`ValueError` so long-standing
    callers that caught the transforms' original bare ``ValueError`` keep
    working.  The triggering lint diagnostics ride along in
    :attr:`diagnostics` and in the machine-readable context.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]) -> None:
        self.diagnostics = list(diagnostics)
        super().__init__(
            "; ".join(d.message for d in self.diagnostics),
            stage="layout",
            defect=self.diagnostics[0].rule if self.diagnostics else None,
            diagnostics=[d.to_dict() for d in self.diagnostics],
        )


def _diag(severity: Severity, location: str, message: str, **measured: object) -> Diagnostic:
    return Diagnostic(RULE_INTEGRITY, severity, location, message, measured)


def raise_on_errors(diagnostics: Iterable[Diagnostic]) -> None:
    """Raise :class:`LayoutError` if any diagnostic is ERROR severity."""
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        raise LayoutError(errors)


def audit_gid_order(
    module: Module, gid_order: Sequence[int], *, require_complete: bool = False
) -> list[Diagnostic]:
    """Audit a gid order against a module.

    Out-of-range and duplicate gids are errors.  When ``require_complete``
    is set (a finished layout, not a partial hot-block prefix), missing
    gids are errors too.
    """
    n = module.n_blocks
    diags: list[Diagnostic] = []
    seen: set[int] = set()
    for gid in gid_order:
        if not 0 <= gid < n:
            diags.append(
                _diag(
                    Severity.ERROR,
                    "layout",
                    f"gid {gid} out of range (module has {n} blocks)",
                    gid=int(gid),
                    n_blocks=n,
                )
            )
            continue
        if gid in seen:
            diags.append(
                _diag(
                    Severity.ERROR,
                    "layout",
                    f"gid {gid} appears twice in layout order",
                    gid=int(gid),
                )
            )
        seen.add(gid)
    if require_complete:
        missing = sorted(set(range(n)) - seen)
        if missing:
            shown = ", ".join(map(str, missing[:8]))
            if len(missing) > 8:
                shown += ", ..."
            diags.append(
                _diag(
                    Severity.ERROR,
                    "layout",
                    f"layout order misses {len(missing)} block(s): gids {shown}",
                    n_missing=len(missing),
                )
            )
    return diags


def audit_function_order(module: Module, func_order: Sequence[str]) -> list[Diagnostic]:
    """Audit a function order: duplicates and unknown names are errors."""
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for name in func_order:
        if name not in module:
            diags.append(
                _diag(
                    Severity.ERROR,
                    "layout",
                    f"function {name!r} not defined in module",
                    function=name,
                )
            )
            continue
        if name in seen:
            diags.append(
                _diag(
                    Severity.ERROR,
                    "layout",
                    f"function {name!r} appears twice in layout order",
                    function=name,
                )
            )
        seen.add(name)
    return diags


def audit_address_map(module: Module, amap: "AddressMap") -> list[Diagnostic]:
    """Audit a finished address map: the full permutation / overlap / gap check.

    Errors: the order is not a permutation of all gids, a block start is
    negative, two blocks overlap, or a block's encoded size is impossible
    (smaller than its instructions, or larger than instructions plus one
    entry stub and one fall-through jump).  Placement gaps are legal
    (alignment-style optimizers pad deliberately) and reported as INFO with
    the wasted byte total.
    """
    diags = audit_gid_order(module, amap.order, require_complete=True)

    n = module.n_blocks
    starts = np.asarray(amap.starts)
    sizes = np.asarray(amap.sizes)
    if starts.shape[0] != n or sizes.shape[0] != n:
        diags.append(
            _diag(
                Severity.ERROR,
                "layout",
                f"address map covers {starts.shape[0]} blocks, module has {n}",
                n_blocks=n,
            )
        )
        return diags

    for gid in np.nonzero(starts < 0)[0]:
        block = module.block_by_gid(int(gid))
        diags.append(
            _diag(
                Severity.ERROR,
                f"{block.func}:{block.name}",
                f"block gid {int(gid)} has negative start address {int(starts[gid])}",
                start=int(starts[gid]),
            )
        )

    # Size plausibility: base encoding .. base + stub + fall-through jump.
    for block in module.iter_blocks():
        size = int(sizes[block.gid])
        lo = block.size_bytes
        hi = block.size_bytes + 2 * INSTRUCTION_BYTES
        if not lo <= size <= hi:
            diags.append(
                _diag(
                    Severity.ERROR,
                    f"{block.func}:{block.name}",
                    f"encoded size {size}B outside plausible range "
                    f"[{lo}, {hi}]B for {block.n_instr} instructions",
                    size_bytes=size,
                    min_bytes=lo,
                    max_bytes=hi,
                )
            )

    # Overlaps and gaps, in address order.
    idx = np.argsort(starts, kind="stable")
    s = starts[idx]
    e = s + sizes[idx]
    overlap_at = np.nonzero(s[1:] < e[:-1])[0]
    for i in overlap_at[:8]:
        a = module.block_by_gid(int(idx[i]))
        b = module.block_by_gid(int(idx[i + 1]))
        diags.append(
            _diag(
                Severity.ERROR,
                f"{b.func}:{b.name}",
                f"block overlaps predecessor {a.func}:{a.name} "
                f"(starts at {int(s[i + 1])}, predecessor ends at {int(e[i])})",
                start=int(s[i + 1]),
                predecessor_end=int(e[i]),
            )
        )
    if overlap_at.shape[0] > 8:
        diags.append(
            _diag(
                Severity.ERROR,
                "layout",
                f"{overlap_at.shape[0]} overlapping block pairs in total",
                n_overlaps=int(overlap_at.shape[0]),
            )
        )

    gap_bytes = int(np.maximum(s[1:] - e[:-1], 0).sum()) if n > 1 else 0
    if gap_bytes > 0 and not overlap_at.shape[0]:
        diags.append(
            _diag(
                Severity.INFO,
                "layout",
                f"placement leaves {gap_bytes} gap byte(s) between blocks",
                gap_bytes=gap_bytes,
                image_bytes=int(amap.image_bytes),
            )
        )
    return diags


def layout_integrity(ctx: "LintContext", cfg: object) -> tuple[list[Diagnostic], dict]:
    """The post-processing sanity check as a rule (L006).

    Delegates to :func:`audit_address_map`, the audit the IR transforms
    apply when a layout is constructed, so the linter and the transforms
    report identical diagnostics for identical breakage.  The static pack's
    S005 is this rule relabelled.
    """
    diags = audit_address_map(ctx.module, ctx.amap)
    n_errors = sum(1 for d in diags if d.severity is Severity.ERROR)
    gap_bytes = sum(
        int(d.measured.get("gap_bytes", 0)) for d in diags if "gap_bytes" in d.measured
    )
    metrics = {
        "n_errors": n_errors,
        "gap_bytes": gap_bytes,
        "image_bytes": int(ctx.amap.image_bytes),
        "total_bytes": int(ctx.amap.total_bytes),
        "added_jumps": int(ctx.amap.added_jumps),
    }
    return diags, metrics
