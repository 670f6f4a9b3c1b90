"""IR verifier.

The paper's basic-block reordering pipeline ends with a post-processing step
"responsible for sanity check, residual code elimination and other cleanup
work".  This module is the sanity-check half: it validates structural
invariants of a module so that transforms can assert they produced a legal
program.

Checks
------
* function names are unique in the module and block names are unique
  within each function (constructors enforce this too, but a module can
  be mutated after construction — the verifier re-checks);
* every terminator's local targets name blocks in the same function;
* every call targets a defined function;
* the entry function exists and every function has an entry block;
* branch probabilities lie in ``[0, 1]`` and switch weights are
  non-negative with a positive sum;
* global ids are dense and consistent after sealing;
* (warning-level) unreachable blocks are reported, not rejected — real
  binaries keep cold unreachable code too.  Reachability is a BFS over the
  successor CSR of the module's
  :attr:`~repro.ir.module.Module.exec_table`, built only once the
  structural checks have passed.
"""

from __future__ import annotations

import numpy as np

from .module import Branch, Module, Switch

__all__ = ["ValidationError", "validate_module"]


class ValidationError(Exception):
    """Raised when a module violates a structural invariant."""


def validate_module(module: Module) -> list[str]:
    """Validate ``module``; raise :class:`ValidationError` on hard errors.

    Returns a list of warning strings (e.g. unreachable blocks) so callers
    can surface them without failing.
    """
    if not module.sealed:
        raise ValidationError("module is not sealed")

    warnings: list[str] = []
    fname_list = [f.name for f in module.functions]
    fnames = set(fname_list)
    if len(fnames) != len(fname_list):
        dupes = sorted({n for n in fname_list if fname_list.count(n) > 1})
        raise ValidationError(f"duplicate function name(s) in module: {', '.join(dupes)}")

    for func in module.functions:
        block_names = [b.name for b in func.blocks]
        known = set(block_names)
        if len(known) != len(block_names):
            dupes = sorted({n for n in block_names if block_names.count(n) > 1})
            raise ValidationError(
                f"duplicate block name(s) in function {func.name!r}: {', '.join(dupes)}"
            )
        for block in func.blocks:
            term = block.terminator
            for target in term.local_targets():
                if target not in known:
                    raise ValidationError(
                        f"{func.name}:{block.name} targets unknown block {target!r}"
                    )
            callee = term.callee()
            if callee is not None and callee not in fnames:
                raise ValidationError(
                    f"{func.name}:{block.name} calls unknown function {callee!r}"
                )
            if isinstance(term, Branch):
                probs = [term.taken_prob]
                if term.phase_prob is not None:
                    probs.append(term.phase_prob)
                    if term.phase_period <= 0:
                        raise ValidationError(
                            f"{func.name}:{block.name} has phase_prob but "
                            f"phase_period={term.phase_period}"
                        )
                for p in probs:
                    if not 0.0 <= p <= 1.0:
                        raise ValidationError(
                            f"{func.name}:{block.name} branch probability {p} out of range"
                        )
            if isinstance(term, Switch):
                if any(w < 0 for w in term.weights) or sum(term.weights) <= 0:
                    raise ValidationError(
                        f"{func.name}:{block.name} switch weights must be "
                        f"non-negative with positive sum"
                    )

    # Dense, consistent global ids.
    gids = [b.gid for b in module.iter_blocks()]
    if sorted(gids) != list(range(module.n_blocks)):
        raise ValidationError("global block ids are not dense")
    for block in module.iter_blocks():
        if module.block_by_gid(block.gid) is not block:
            raise ValidationError(f"gid table inconsistent at {block.gid}")

    # Reachability (warnings only).
    reachable = module.exec_table.reachable()
    for gid in np.flatnonzero(~reachable).tolist():
        block = module.block_by_gid(gid)
        warnings.append(f"unreachable block {block.func}:{block.name}")
    return warnings
