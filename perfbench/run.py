"""End-to-end benchmark of the code-layout pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5-affinity --seed 1 --seconds 30 --trace 0

One client runs the workload's operations one after another (a closed
loop), each in a fresh process (``workload.py``) that imports ``repro``
from the checkout's ``src``, builds a cold ``Lab`` and drives the
pipeline through its public entry points.  Operations repeat until the
next one would end past ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics: medians over the run's
operations, with times scaled to a reference host speed (see
``workload.Stamps``).  ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics of the traced ones; the difference of
the two medians is ``tracing.overhead_s``.

Every operation's outputs are checked against ``expected/<workload>.json``
(exact on integers, strings and digests; floats within 1e-12 relative).
A raise or a mismatch counts as a failed operation.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs the four workloads
in turn and prints one such line after each.

``--write-expected`` runs one operation and records its outputs as the
new expected values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent

#: the workloads; BENCHMARK.json says why each exists.
WORKLOADS = ("fig5-affinity", "corun-trg", "fleet-cold", "fleet-warm")

#: extra fresh processes that only set up, so every run has several
#: set-up samples even when one operation fills ``--seconds``.
SETUP_SAMPLES = 5

#: the whole run must end by then (the contract allows 180 s).
DEADLINE_S = 170.0

#: relative tolerance of float comparisons: last-bit differences only.
FLOAT_RTOL = 1e-12


class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


# -- checking outputs --------------------------------------------------------


def _same(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def compare(outputs: dict, expected: dict) -> tuple[int, list[str]]:
    """(attempted, mismatched keys): one operation per key of either side."""
    keys = sorted(set(outputs) | set(expected))
    bad = [k for k in keys if k not in outputs or k not in expected or not _same(outputs[k], expected[k])]
    return len(keys), bad


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1 + 1e-9) + 1e-9
    if isinstance(value, list):
        return [_perturb(value[0]), *value[1:]]
    return f"{value}~"


def check_perturbation(outputs: dict, expected: dict, seed: int) -> None:
    """A deliberately perturbed expected value must count as a failure."""
    key = random.Random(seed).choice(sorted(expected))
    perturbed = dict(expected)
    perturbed[key] = _perturb(expected[key])
    _, bad = compare(outputs, perturbed)
    if key not in bad:
        raise BenchError(f"checker missed a perturbed expected value at {key!r}")


# -- running operations --------------------------------------------------------


class Client:
    """Starts workload processes from one checkout, one at a time."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env["TMPDIR"] = str(work)
        self.dirs = 0

    def fresh_dir(self) -> Path:
        self.dirs += 1
        path = self.work / f"data-{self.dirs}"
        path.mkdir(parents=True)
        return path

    def run(self, workload: str, seed: int, data_dir: Path, *flags: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        cmd = [
            sys.executable, str(HERE / "workload.py"),
            "--workload", workload, "--seed", str(seed), "--data-dir", str(data_dir), *flags,
        ]
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} operation passed the run deadline") from None
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"{workload} process exited with {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


class Tally:
    """Operations attempted and failed, checked against expected values."""

    def __init__(self, expected: dict[str, dict], seed: int):
        self.expected = expected
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.perturbation_checked = False

    def check(self, workload: str, report: dict) -> None:
        expected = self.expected[workload]
        if report.get("error") is not None:
            print(f"error: {workload}: {report['error']}", file=sys.stderr)
            self.attempted += len(expected)
            self.failed += len(expected)
            return
        attempted, bad = compare(report["outputs"], expected)
        self.attempted += attempted
        self.failed += len(bad)
        for key in bad[:5]:
            print(f"mismatch: {workload}: {key}: got {report['outputs'].get(key)!r}, "
                  f"expected {expected.get(key)!r}", file=sys.stderr)
        if not self.perturbation_checked:
            check_perturbation(report["outputs"], expected, self.seed)
            self.perturbation_checked = True


def prepare(workload: str, seed: int, client: Client) -> tuple[Path, dict | None]:
    """The workload's data directory, and the report of the cold fleet
    run that fills its memo and store on ``fleet-warm``."""
    data_dir = client.fresh_dir()
    if workload != "fleet-warm":
        return data_dir, None
    return data_dir, client.run("fleet-cold", seed, data_dir)


def measure(workload: str, args, client: Client, tally: Tally) -> tuple[list[dict], list[dict], float]:
    """Run ``workload``; returns (untraced reports, traced reports, set-up s)."""
    data_dir, fill = prepare(workload, args.seed, client)
    extra_setup = 0.0
    if fill is not None:
        tally.check("fleet-cold", fill)
        extra_setup = fill["wall_ref_s"]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(client.run(workload, args.seed, data_dir, "--setup-only")["setup_ref_s"])

    plain, traced = [], []
    begin = time.monotonic()
    rounds = 0
    while True:
        for trace in (False, True) if args.trace else (False,):
            if workload == "fleet-cold":
                shutil.rmtree(data_dir)
                data_dir = client.fresh_dir()
            report = client.run(workload, args.seed, data_dir, *(["--trace"] if trace else []))
            tally.check(workload, report)
            (traced if trace else plain).append(report)
            if not trace:
                setups.append(report["setup_ref_s"])
        rounds += 1
        elapsed = time.monotonic() - begin
        if elapsed + elapsed / rounds > args.seconds:
            break
    return plain, traced, statistics.median(setups) + extra_setup


def _median(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def end_to_end(plain: list[dict], setup_s: float) -> dict[str, float]:
    """Medians over the run, times at the reference host speed.

    Other tenants of the shared host slow it by up to half, for seconds
    to minutes at a time, so measured times move with how busy the host
    was.  ``workload.py`` probes the host's speed between stretches of
    each operation and scales each stretch to a fixed reference speed.
    """
    return {
        "wall_s": _median(plain, "wall_ref_s"),
        "cpu_s": _median(plain, "cpu_ref_s"),
        "setup_s": setup_s,
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    layers = [r["layers"] for r in traced]
    values = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    values["tracing.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    return values


# -- entry point ---------------------------------------------------------------


def _check_definition(root: Path) -> None:
    """Metric lists here and in BENCHMARK.json must agree."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    ours = {
        "end_to_end": [m[0] for m in END_TO_END],
        "per_layer": [m[0] for m in PER_LAYER],
    }
    for section, names in ours.items():
        theirs = [entry["name"] for entry in spec.get(section, [])]
        if theirs != names:
            raise BenchError(f"BENCHMARK.json {section} disagree with perfbench/metrics.py")
    unknown = {entry["name"] for entry in spec.get("workloads", [])} - set(WORKLOADS)
    if unknown:
        raise BenchError(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")


def _load_expected(name: str) -> dict:
    path = HERE / "expected" / f"{name}.json"
    try:
        return json.loads(path.read_text())["values"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read expected values {path}: {exc}") from None


def write_expected(workload: str, seed: int, client: Client) -> None:
    data_dir, _fill = prepare(workload, seed, client)
    report = client.run(workload, seed, data_dir)
    if report.get("error") is not None:
        raise BenchError(f"operation failed: {report['error']}")
    path = HERE / "expected" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    payload = {"workload": workload, "values": report["outputs"]}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(report['outputs'])} expected values to {path}")


def run_workload(workload: str, args, root: Path) -> None:
    """Measure one workload from fresh processes and print its report."""
    work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        client = Client(root, work, time.monotonic() + DEADLINE_S)
        if args.write_expected:
            write_expected(workload, args.seed, client)
            return
        needed = [workload] + (["fleet-cold"] if workload == "fleet-warm" else [])
        tally = Tally({name: _load_expected(name) for name in needed}, args.seed)
        plain, traced, setup_s = measure(workload, args, client, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        values, spec = per_layer(plain, traced), PER_LAYER
    else:
        values, spec = end_to_end(plain, setup_s), END_TO_END
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(plain) + len(traced)}  (closed loop, one client)")
    for name, unit, _better in spec:
        print(f"  {name:<40} {values[name]:>16.6f} {unit}")
    if not args.trace:
        for key in ("wall_s", "cpu_s"):
            print(f"  {key + ' (as measured)':<40} {_median(plain, key):>16.6f} s")
        print("  wall_s of each operation, as measured: "
              + " ".join(f"{r['wall_s']:.3f}" for r in plain)
              + "; at reference speed: " + " ".join(f"{r['wall_ref_s']:.3f}" for r in plain)
              + " (" + "/".join(str(r["segments"]) for r in plain) + " segments)")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'fail_ratio':<40} {ratio:>16.6f} ({tally.failed} of {tally.attempted})")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn (one JSON line each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the order of corun-trg's cell requests")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure until the next operation would end past this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="record one operation's outputs as the expected values")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    try:
        if not (root / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro package under {root / 'src'}; run from a checkout's root")
        _check_definition(root)
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            run_workload(workload, args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
