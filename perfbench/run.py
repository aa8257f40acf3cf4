"""Run one findist benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory, and every repeat runs in a fresh single-threaded process
(``child.py``).

Without tracing, the run first starts ``SETUP_PROBES`` set-up-only processes,
then runs the workload's input again and again, each time in a new process,
until ``--seconds`` have passed and at least ``MIN_REPEATS`` runs are done.
Every process also times the host-speed kernel of ``hostspeed.py``, and each
time below is scaled by ``hostspeed.REFERENCE_S`` over the kernel time of the
same process, so that it reads in reference seconds and a slow spell of the
shared host cancels out.  It reports

* ``run_s``: the median over repeats of the scaled wall time from input
  ready to output bytes rendered;
* ``setup_s``: the median over every process started of the scaled wall
  time from starting the process to input ready;
* ``peak_rss_mb``: the median over repeats of the process's peak resident
  memory.  The set-up-only floor under it (interpreter, imports, input) and
  the run's increment over that floor are printed beside it.

With ``--trace 1`` it runs the input once untraced and twice traced, and
reports the per-layer metrics of the first traced process plus
``trace.overhead_s``, the traced minus the untraced wall time, unscaled.  The
spans go to ``.bench_trace/<workload>-<seed>.jsonl``.

Every process's output is checked: every finding must pass (the harness turns
a sweep row's ``unexplained-reduction`` flag into a failing finding), every
repeat must give the same bytes, traced bytes must equal untraced bytes, two
traced runs must give the same counts, and at the workload's default seed the
bytes must have the sha256 recorded in ``expected.json``.  A process that
crashes or hangs counts as one failed check.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 0 when every check passed, 1 when one failed and 2 on a
usage error or when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

SETUP_PROBES = 3
MIN_REPEATS = 3
# A run must end within 180 s: start no repeat that would end after
# STOP_STARTING_S, and kill any process still running at KILL_AFTER_S.
STOP_STARTING_S = 150.0
KILL_AFTER_S = 170.0
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Tally:
    """Attempted and failed checks, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(note)


class Runner:
    def __init__(self, workload: workloads.Workload, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.deadline = started + KILL_AFTER_S
        self.tally = Tally()
        self.expected = workloads.expected_digests().get(workload.name) if seed == workload.default_seed else None

    def spawn(self, mode: str, spans_path: str | None = None) -> dict | None:
        """Start one child and return its result with ``setup_s`` added.

        A child that crashes or hangs is recorded as a failed check and
        gives None.
        """
        argv = [sys.executable, CHILD, self.workload.name, str(self.seed), mode]
        if spans_path:
            argv.append(spans_path)
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=timeout,
                env=dict(os.environ, **CHILD_ENV), cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            self.tally.check(False, f"{mode} process timed out after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.tally.check(False, f"{mode} process exited {proc.returncode}: {tail[0]}")
            return None
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready"] - spawned
        return result

    def check_output(self, result: dict, label: str) -> None:
        self.tally.attempted += result["checks"]
        self.tally.failures.extend(f"{label}: {name}" for name in result["failed"])
        if self.expected is not None:
            self.tally.check(
                result["digest"] == self.expected,
                f"{label}: output sha256 {result['digest']} is not the recorded one",
            )

    # -- untraced ------------------------------------------------------------

    def timed(self, seconds: int, started: float) -> tuple[dict, list[str]]:
        setups, floor_kb = [], []
        for _ in range(SETUP_PROBES):
            probe = self.spawn("setup")
            if probe:
                setups.append(scaled(probe["setup_s"], probe["speed_before"]))
                floor_kb.append(probe["maxrss_kb"])
        times, raw_times, rss_kb, first_digest = [], [], [], None
        repeats = 0
        while True:
            repeat_start = time.monotonic()
            result = self.spawn("run")
            repeats += 1
            if result is not None:
                self.check_output(result, f"repeat {repeats}")
                if first_digest is None:
                    first_digest = result["digest"]
                else:
                    self.tally.check(
                        result["digest"] == first_digest, f"repeat {repeats}: output bytes differ from the first repeat"
                    )
                speed = (result["speed_before"] + result["speed_after"]) / 2
                times.append(scaled(result["run_s"], speed))
                raw_times.append(result["run_s"])
                rss_kb.append(result["maxrss_kb"])
                setups.append(scaled(result["setup_s"], result["speed_before"]))
            now = time.monotonic()
            repeat_s = now - repeat_start
            if now + repeat_s - started > STOP_STARTING_S:
                break
            if repeats >= MIN_REPEATS and now + repeat_s - started > seconds:
                break
        if not times:
            return {}, []
        peak_kb = statistics.median(rss_kb)
        metrics = {
            "run_s": statistics.median(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": megabytes(peak_kb),
        }
        notes = [
            f"run_s: median of {len(times)} repeats in reference seconds: {quartiles(times)}; "
            f"unscaled wall time: {quartiles(raw_times)}",
            f"setup_s: median of {len(setups)} processes in reference seconds: {quartiles(setups)}",
            f"peak_rss_mb: median of {len(rss_kb)} repeats",
        ]
        if floor_kb:
            floor = statistics.median(floor_kb)
            notes[-1] += f"; set-up-only floor {megabytes(floor):.3f} MB, run increment {megabytes(peak_kb - floor):.3f} MB"
        return metrics, notes

    # -- traced ----------------------------------------------------------------

    def traced(self) -> tuple[dict, list[str]]:
        os.makedirs(TRACE_DIR, exist_ok=True)
        spans_path = os.path.join(TRACE_DIR, f"{self.workload.name}-{self.seed}.jsonl")
        plain = self.spawn("run")
        first = self.spawn("trace", spans_path)
        second = self.spawn("trace")
        for label, result in (("untraced", plain), ("traced", first), ("traced again", second)):
            if result:
                self.check_output(result, label)
        if not (plain and first and second):
            return {}, []
        self.tally.check(plain["digest"] == first["digest"], "traced output bytes differ from untraced")
        counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in (first, second)]
        differing = sorted(k for k in counts[0].keys() | counts[1].keys() if counts[0].get(k) != counts[1].get(k))
        self.tally.check(not differing, f"two traced runs disagree on {differing}")
        metrics = dict(first["layers"])
        metrics["trace.overhead_s"] = first["run_s"] - plain["run_s"]
        notes = [
            f"trace: untraced run_s {plain['run_s']:.4f} s, traced {first['run_s']:.4f} s; "
            f"{first['spans']} spans in {os.path.relpath(spans_path, ROOT)}",
        ]
        return metrics, notes


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the host-speed kernel took ``kernel_s``, in reference seconds."""
    return seconds * hostspeed.REFERENCE_S / kernel_s


def megabytes(kb: float) -> float:
    return kb * 1024 / 1e6


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f} s"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {median:.4f} s, quartiles {q1:.4f}..{q3:.4f} s"


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="run one findist benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=35, help="how long to keep starting repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < workloads.SEED_LIMIT:
        parser.error("--seed must lie in [0, 2**64)")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "findist", "__init__.py")):
        print(f"run.py: no findist package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    runner = Runner(workload, seed, started)
    metrics, notes = runner.traced() if args.trace else runner.timed(args.seconds, started)
    tally = runner.tally
    if not metrics:
        tally.check(False, "no complete measurement")

    print(f"workload {workload.name}, seed {seed}, trace {args.trace}")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} {value} {unit(name)}")
    failed_frac = len(tally.failures) / tally.attempted
    print(f"failed_frac {failed_frac} share ({len(tally.failures)} of {tally.attempted} checks)")
    for note in tally.failures:
        print(f"FAILED {note}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
