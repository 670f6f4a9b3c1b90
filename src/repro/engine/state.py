"""Interpreter inputs.

The interpreter models only what the trace needs: a call stack with per-frame
loop counters, a global dynamic-block counter (which also drives branch phase
behaviour), and a seeded RNG — ``random.Random``, several times faster per
scalar draw than numpy's ``Generator``.  There is no data memory — branch
outcomes are driven by probabilities, counted loops, and phases, which is
sufficient to produce traces with the locality structure the paper's models
consume (hot/cold paths, loop nests, phase shifts, call interleavings).  An
:class:`InputSpec` fixes the seed, the block budget and the phase offset of
one run.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["InputSpec"]


@dataclass(frozen=True)
class InputSpec:
    """One program input.

    The paper profiles with the SPEC *test* input and evaluates with the
    *ref* input.  Here an input is a seed (branch outcome stream) plus a
    budget of dynamic basic blocks; distinct seeds and budgets reproduce the
    profile-mismatch effect.

    Attributes
    ----------
    name: label ("test", "ref", ...).
    seed: RNG seed for branch outcomes.
    max_blocks: stop after this many dynamic basic blocks (programs whose
        natural exit comes earlier stop there).
    phase_offset: shifts the global phase counter, so the same program can
        present different phase alignment between inputs.
    """

    name: str
    seed: int
    max_blocks: int
    phase_offset: int = 0
