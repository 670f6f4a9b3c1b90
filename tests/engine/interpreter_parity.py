"""Parity gate: the production interpreter against its oracle.

Runs every suite program's test and ref input through
:func:`repro.engine.interpreter.run` and through the object-walking
oracle in ``tests/engine/interpreter_oracle.py``, and hashes each side's
trace bytes and dtype, instruction count and natural-exit flag::

    python -m tests.engine.interpreter_parity --scale 0.05

Prints both digests; exits 1 if they differ (naming the first run that
does), 0 if they agree.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from repro.engine import interpreter
from repro.workloads import ALL_PROGRAMS, build, get_program, scaled_spec

from tests.engine import interpreter_oracle


def suite_runs(scale: float, programs=ALL_PROGRAMS):
    """``(label, module, input)`` for each program's test and ref input,
    with trace budgets scaled as ``Lab(scale=...)`` scales them."""
    for name in programs:
        spec = scaled_spec(get_program(name).spec, scale)
        prog, module = build(
            name, ref_blocks=spec.ref_blocks, test_blocks=spec.test_blocks
        )
        for input_spec in (prog.spec.test_input(), prog.spec.ref_input()):
            yield f"{name}/{input_spec.name}", module, input_spec


def run_digest(result) -> bytes:
    """Digest of one run: trace dtype and bytes, instruction count, exit."""
    h = hashlib.sha256()
    h.update(str(result.bb_trace.dtype).encode() + b"\0")
    h.update(result.bb_trace.tobytes())
    h.update(f"{result.instr_count}|{result.natural_exit}".encode())
    return h.digest()


def compare(scale: float, programs=ALL_PROGRAMS) -> tuple[str, str, list[str]]:
    """Both sides' digests over the suite, and the runs that differ."""
    ours, theirs = hashlib.sha256(), hashlib.sha256()
    differ = []
    for label, module, spec in suite_runs(scale, programs):
        a = run_digest(interpreter.run(module, spec))
        b = run_digest(interpreter_oracle.run(module, spec))
        ours.update(a)
        theirs.update(b)
        if a != b:
            differ.append(label)
    return ours.hexdigest(), theirs.hexdigest(), differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=0.05)
    args = parser.parse_args(argv)
    ours, theirs, differ = compare(args.scale)
    print(f"interpreter {ours}")
    print(f"oracle      {theirs}")
    if differ:
        print(f"{len(differ)} runs differ, first {differ[0]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
