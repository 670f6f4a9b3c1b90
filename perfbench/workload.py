"""One workload operation in a fresh process: set up, run, report.

``run.py`` starts this script once per measured operation (and once per
extra set-up sample), with the checkout's ``src`` on ``PYTHONPATH``.
The last line of standard output is one JSON object:

* ``setup_s``: importing ``repro`` and constructing the ``Lab``;
* ``wall_s`` / ``cpu_s`` / ``peak_rss_mb``: the operation itself,
  including closing the lab's worker pool; CPU counts the pool workers;
* ``setup_ref_s`` / ``wall_ref_s`` / ``cpu_ref_s`` (untraced runs): the
  same times scaled to a reference host speed (see :class:`Stamps`),
  and ``segments``, how many stretches the probes cut the operation into;
* ``outputs``: the values checked against ``expected/<workload>.json``;
* ``layers``: per-layer metrics, with ``--trace``;
* ``error``: the exception the operation raised, if any.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up time runs from here, before any import of repro

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
import spans  # noqa: E402

#: workload name -> trace-budget scale of its cold Lab.
SCALES = {
    "fig5-affinity": 0.05,
    "corun-trg": 0.1,
    "fleet-cold": 0.25,
    "fleet-warm": 0.25,
}

#: the co-run workload's optimized layouts and measurement channels.
TRG_LAYOUTS = ("function-trg", "bb-trg")
CHANNELS = ("sim", "hw")

#: worker processes of the fleet workloads (the machine has two cores).
FLEET_JOBS = 2


def make_lab(workload: str, data_dir: Path):
    from repro.experiments import Lab

    scale = SCALES[workload]
    if not workload.startswith("fleet"):
        return Lab(scale=scale)
    from repro.perf.memo import SimMemo
    from repro.perf.store import TraceStore

    return Lab(
        scale=scale,
        jobs=FLEET_JOBS,
        memo=SimMemo(data_dir / "memo"),
        store=TraceStore(data_dir / "store"),
    )


def corun_cells(seed: int) -> list[tuple[str, str, str, str]]:
    """Every (program, layout, probe, channel) cell, in seeded order.

    The seed permutes the order of the requests, never the set of cells.
    Programs keep their suite order and the seed shuffles each program's
    cells: which programs the lab holds at any moment, and so its peak
    memory, does not depend on the seed.
    """
    from repro.workloads import PROBE_PROGRAMS, STUDY_PROGRAMS

    rng = random.Random(seed)
    cells = []
    for name in STUDY_PROGRAMS:
        block = [
            (name, layout, probe, channel)
            for layout in TRG_LAYOUTS
            for probe in PROBE_PROGRAMS
            for channel in CHANNELS
        ]
        rng.shuffle(block)
        cells += block
    return cells


def run_operation(workload: str, lab, seed: int):
    """The timed work; returns what :func:`collect_outputs` formats."""
    if workload != "corun-trg":
        from repro.experiments.runner import run_experiment

        return run_experiment("fleet" if workload.startswith("fleet") else "fig5", lab)

    from repro.experiments import BASELINE

    results: dict[str, object] = {}
    for name, layout, probe, channel in corun_cells(seed):
        if not lab.supports(name, layout):
            continue
        results[f"layout/{name}/{layout}"] = lab.layout(name, layout)
        for target in (layout, BASELINE):
            results[f"corun/{name}/{target}|{probe}/{channel}"] = lab.corun_miss(
                (name, target), (probe, BASELINE), channel
            )
        if channel == "hw":
            results[f"speedup/{name}/{layout}|{probe}"] = lab.corun_speedup(
                name, layout, probe
            )
    return results


def collect_outputs(workload: str, lab, state) -> dict[str, object]:
    """The checked values of one operation, as plain JSON values."""
    from repro.experiments import BASELINE

    if workload == "corun-trg":
        out = {}
        for key, value in state.items():
            if key.startswith("layout/"):
                out[key] = layout_digest(value)
            elif key.startswith("corun/"):
                a, b = value
                out[key] = [a.misses, a.instructions, b.misses, b.instructions]
            else:
                out[key] = value
        return _plain(out)

    out = {f"result/{key}": value for key, value in state.summary.items()}
    if workload == "fig5-affinity":
        from repro.experiments.exp_fig5 import AFFINITY_OPTIMIZERS
        from repro.workloads import STUDY_PROGRAMS

        for name in STUDY_PROGRAMS:
            for layout in (BASELINE, *AFFINITY_OPTIMIZERS):
                if not lab.supports(name, layout):
                    continue
                miss = lab.solo_miss(name, layout, channel="hw")
                out[f"solo/{name}/{layout}/hw"] = [miss.misses, miss.instructions]
                if layout != BASELINE:
                    out[f"layout/{name}/{layout}"] = layout_digest(lab.layout(name, layout))
    else:
        for row in state.rows:
            out[f"row/{row[0]}"] = [str(cell) for cell in row]
    return _plain(out)


def layout_digest(layout) -> list:
    """Order digest, code bytes and added jumps of one layout."""
    text = json.dumps([str(sym) for sym in layout.order])
    return [hashlib.sha256(text.encode()).hexdigest()[:16], layout.total_bytes, layout.added_jumps]


def _plain(value):
    """``value`` with NumPy scalars turned into Python ones."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


def _cpu_s() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


#: iterations of the host-speed probe, and its time when the host runs
#: at full speed (2-core Xeon VM, CPython 3.11).
PROBE_ITERS = 400_000
PROBE_REF_S = 0.026

#: seconds between two probes while an operation runs.
PROBE_EVERY_S = 0.5


def probe_s() -> float:
    """CPU time of a fixed pure-Python loop: how fast the host runs now.

    CPU time, not wall time, so that pool workers competing for the
    cores while the probe runs do not count as a slow host.
    """
    begin = time.thread_time()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i % 7
    return time.thread_time() - begin


class Stamps:
    """Host-speed probes between the segments of one operation.

    Other tenants of a shared host slow it by up to half, for seconds to
    minutes at a time.  A probe at each end of a segment says how fast
    the host ran; :meth:`at_reference` scales each segment's time to the
    speed at which the probe takes ``PROBE_REF_S``.

    A boundary is ``(wall_in, wall_out, cpu_in, cpu_out, probe_s)``: the
    probe runs between ``in`` and ``out``, so no segment contains it.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float, float, float, float]] = []
        self._ticking = False

    def mark(self, wall_in: float | None = None, cpu_in: float | None = None) -> None:
        wall_in = time.perf_counter() if wall_in is None else wall_in
        cpu_in = _cpu_s() if cpu_in is None else cpu_in
        probe = probe_s()
        self.marks.append((wall_in, time.perf_counter(), cpu_in, _cpu_s(), probe))

    def start_ticking(self) -> None:
        """Mark a boundary every ``PROBE_EVERY_S`` until :meth:`stop_ticking`.

        A ``SIGALRM`` handler runs the probe in the main thread between
        two bytecodes (a long NumPy call delays it until it returns);
        interrupted system calls are retried (PEP 475).
        """
        self._ticking = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_ticking(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._ticking = False

    def _tick(self, _signum, _frame) -> None:
        if self._ticking:
            self._ticking = False  # a tick arriving during the probe is dropped
            self.mark()
            self._ticking = True

    def _segments(self):
        """``(wall, cpu, probe)`` of each segment; the probe is the mean
        of the two at its ends."""
        for a, b in zip(self.marks, self.marks[1:]):
            yield b[0] - a[1], b[2] - a[3], (a[4] + b[4]) / 2

    def total(self, index: int) -> float:
        """Wall (``index`` 0) or CPU (1) time of all segments, as measured."""
        return sum(seg[index] for seg in self._segments())

    def at_reference(self, index: int) -> float:
        """The same, each segment scaled to the reference host speed."""
        return sum(seg[index] * PROBE_REF_S / seg[2] for seg in self._segments())


def _join_pool_threads(timeout_s: float = 60.0) -> None:
    """Wait for worker pools to finish shutting down.

    A closed pool's manager thread joins (and so reaps) its worker
    processes; once it ends, their CPU time shows in ``RUSAGE_CHILDREN``.
    """
    deadline = time.monotonic() + timeout_s
    for thread in threading.enumerate():
        if thread is not threading.main_thread() and not thread.daemon:
            thread.join(max(0.0, deadline - time.monotonic()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--data-dir", type=Path, required=True,
                        help="memo and store directories of the fleet workloads")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="report set-up time and exit without running")
    args = parser.parse_args(argv)

    rec = None
    stamps = Stamps()
    if args.trace:
        rec = spans.SpanRecorder()
        spans.install(rec)
    lab = make_lab(args.workload, args.data_dir)
    report: dict[str, object] = {"setup_s": time.perf_counter() - START}
    if rec is None:
        stamps.mark()
        report["setup_ref_s"] = report["setup_s"] * PROBE_REF_S / stamps.marks[0][4]
    if args.setup_only:
        lab.close()
        print(json.dumps(report))
        return 0

    if rec is None:
        stamps.start_ticking()
    cpu_before = _cpu_s()
    start = time.perf_counter()
    state, error = None, None
    try:
        with rec.span(spans.ROOT) if rec is not None else nullcontext():
            try:
                state = run_operation(args.workload, lab, args.seed)
            finally:
                lab.close()
    except Exception as exc:  # a raising operation is a counted failure
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    stamps.stop_ticking()
    end = time.perf_counter()
    if rec is not None:
        rec.close()  # collecting outputs below is not part of the operation
    _join_pool_threads()
    cpu_after = _cpu_s()
    report.update(
        wall_s=end - start,
        cpu_s=cpu_after - cpu_before,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        error=error,
    )
    if rec is None:
        stamps.mark(end, cpu_after)
        report.update(
            wall_s=stamps.total(0),  # without the probes
            cpu_s=stamps.total(1),
            wall_ref_s=stamps.at_reference(0),
            cpu_ref_s=stamps.at_reference(1),
            segments=len(stamps.marks) - 1,
        )
    if error is None:
        report["outputs"] = collect_outputs(args.workload, lab, state)
    if rec is not None:
        report["layers"] = metrics.layer_report(rec, lab, report["wall_s"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
