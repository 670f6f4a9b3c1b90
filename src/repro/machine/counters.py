"""Hardware-performance-counter emulation (PAPI substitute).

The paper measures miss ratios through two channels and reports both:

* **hardware counters** (PAPI on the Xeon) — include every real-machine
  effect; the paper singles out prefetching as the reason hardware-measured
  miss reductions are systematically *smaller* than simulated ones;
* **simulator** (Pin-based) — a clean LRU cache, no prefetch.

This module is the hardware channel: it simulates with the next-line
prefetcher enabled and perturbs the result with small, seeded,
measurement-style noise (run-to-run variation of counter readings).  The
clean channel is plain :func:`repro.cache.setassoc.simulate` — or,
everywhere the experiments route it, the stack-distance kernel
(:mod:`repro.cache.fastsim`), whose domain is exactly that clean cold
prefetch-free cache.  The hardware channel can never use the kernel:
prefetching changes set contents in ways reuse distances do not capture.

Miss *ratios* here follow hardware convention: misses divided by retired
instructions (PAPI ``ICA_MISS / TOT_INS``), not by line accesses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..cache.config import CacheConfig
from ..cache.setassoc import simulate
from ..cache.shared import pass_scale, simulate_shared

__all__ = ["CounterReading", "measure_solo", "measure_corun", "reading_from_stats"]


@dataclass(frozen=True)
class CounterReading:
    """One hardware-counter measurement.

    Co-run readings also carry the prefetch-help split from
    :class:`repro.cache.stats.SharedCacheStats` (per-pass scaled, no
    noise — these are diagnostic attributions, not noisy counters):
    ``prefetch_help_self`` counts consumed prefetches this thread issued
    itself, ``prefetch_help_cross`` those a co-running peer issued.
    Solo readings leave both at zero.
    """

    instructions: int
    icache_misses: int
    prefetch_help_self: float = 0.0
    prefetch_help_cross: float = 0.0

    @property
    def miss_ratio(self) -> float:
        """Misses per instruction (hardware convention)."""
        return self.icache_misses / self.instructions if self.instructions else 0.0


def _noise_factor(noise_sigma: float, *key_parts: object) -> float:
    """Deterministic pseudo-noise in ``exp(N(0, sigma))`` form.

    Seeded from the measurement identity so repeated "runs" of the same
    configuration reproduce the same reading — the reproducibility knob the
    real machine lacks, which tests rely on.
    """
    if noise_sigma <= 0:
        return 1.0
    digest = hashlib.sha256("|".join(map(str, key_parts)).encode()).digest()
    seed = int.from_bytes(digest[:8], "little")
    draw = np.random.default_rng(seed).normal(0.0, noise_sigma)
    return float(np.exp(draw))


def reading_from_stats(
    stats,
    instructions: int,
    cfg: CacheConfig,
    *,
    noise_sigma: float = 0.01,
    measurement_id: str = "",
) -> CounterReading:
    """Turn raw prefetch-simulation stats into a noisy counter reading.

    Split out of :func:`measure_solo` so callers that obtained the stats
    elsewhere — a memo-cache hit, a worker process — apply the *same*
    seeded noise and get bit-identical readings.
    """
    factor = _noise_factor(noise_sigma, "solo", measurement_id, instructions, cfg)
    misses = int(round(stats.misses * factor))
    return CounterReading(instructions=instructions, icache_misses=misses)


def measure_solo(
    lines: np.ndarray,
    instructions: int,
    cfg: CacheConfig,
    *,
    noise_sigma: float = 0.01,
    measurement_id: str = "",
    memo=None,
) -> CounterReading:
    """Hardware-channel solo measurement: prefetch on, noisy counters.

    ``memo`` (a :class:`repro.perf.memo.SimMemo`) replays an identical
    prior simulation instead of re-running the LRU loop.
    """
    sim = simulate if memo is None else memo.simulate
    stats = sim(lines, cfg, prefetch=True)
    return reading_from_stats(
        stats,
        instructions,
        cfg,
        noise_sigma=noise_sigma,
        measurement_id=measurement_id,
    )


def measure_corun(
    streams: list[np.ndarray],
    instructions: list[int],
    cfg: CacheConfig,
    *,
    quantum: int = 8,
    noise_sigma: float = 0.01,
    measurement_id: str = "",
) -> list[CounterReading]:
    """Hardware-channel co-run measurement for each thread.

    Miss counts are scaled from issued accesses to one nominal pass so the
    ratio denominators (the given per-pass instruction counts) line up even
    when the shared simulation wrapped a stream multiple times.
    """
    if len(streams) != len(instructions):
        raise ValueError("streams and instruction counts must align")
    stats = simulate_shared(streams, cfg, quantum=quantum, prefetch=True)
    readings = []
    for t, (st, instr) in enumerate(zip(stats, instructions)):
        scale = pass_scale(len(streams[t]), st.accesses)
        misses_per_pass = st.misses * scale
        factor = _noise_factor(noise_sigma, "corun", measurement_id, t, instr, cfg)
        readings.append(
            CounterReading(
                instructions=instr,
                icache_misses=int(round(misses_per_pass * factor)),
                prefetch_help_self=st.prefetch_hits_self * scale,
                prefetch_help_cross=st.prefetch_hits_cross * scale,
            )
        )
    return readings
