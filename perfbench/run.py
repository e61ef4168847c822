"""Benchmark entry point: time one workload end to end, or trace its layers.

    python3 perfbench/run.py --workload q-sweep --seed 1 --seconds 50 --trace 0

Load model: closed loop, one client.  Each repetition runs the workload's
case list once in a fresh interpreter (``case_runner.py``), so caches start
cold as they do for a CLI user, and the next repetition starts only after the
previous process has exited.  Repetitions are started until ``--seconds`` is
used up (at least one; with ``--trace 1`` at least one traced and one
untraced), and each metric is the median over the repetitions of this run.
Repetition k passes ``seed + REP_SEED_STRIDE * k`` to the verifiers (the
first one the workload seed itself), so a run's median spans several draws
of the seeded checks rather than one.

Times are rescaled to a reference speed.  The machine the benchmark was
written on switches between speed states about 1.6x apart every few seconds,
so raw wall times of identical runs spread by 30-60%.  A speed probe
(``speed_probe.py``) shares the workload's CPU at the lowest priority and
records how long a fixed chunk of work takes, moment by moment; each wall
second then counts ``PROBE_REF_CPU_S / chunk CPU time`` reference seconds.
On this machine that cut the spread of repeated runs from 0.15-0.59 to
0.03-0.08.  The raw times are printed too.

``--trace 0`` reports the end-to-end metrics: ``wall_ref_s`` (first call to
last return, in reference seconds), ``setup_s`` (process launch to the first
verifier call, measured on extra launches that stop there as well as on every
repetition) and ``peak_rss_mb``.  ``setup_s`` is not rescaled.  While a
process starts, the probe often has the CPU, and its cache, to itself and
reads fast, so rescaling each launch made set-up time spread more, not less;
rescaling by the whole run's speed did not narrow it either.  The table also
prints ``measured_wall_s`` and ``slowest_case_ref_s``, the largest of the
cases' median times (the wait on the slowest CLI verb).
``--trace 1`` reports the per-layer metrics of ``tracer.py`` from traced
repetitions (self times unscaled), plus ``trace.overhead_s``: traced minus
untraced ``wall_ref_s`` within the run.

Every report is checked: it must pass, and its non-timing content must match
the digest recorded in ``digests.json``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print the same metrics as a table, with
``failed_frac``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUNNER = HERE / "case_runner.py"
PROBE = HERE / "speed_probe.py"

# launches that stop where the first verifier call would start
SETUP_PROBES = 5
# a repetition still running after this is killed and the run fails
REP_TIMEOUT_S = 150.0
# verifier seeds of successive repetitions of one run
REP_SEED_STRIDE = 1_000_003
# CPU time of one speed-probe chunk at the reference speed; a reference
# second is a second of wall time at a speed where a chunk takes this long
PROBE_REF_CPU_S = 200e-6

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class RunError(Exception):
    """A repetition or the speed probe ended without a result."""


class SpeedProbe:
    """The speed_probe.py process and, once stopped, its samples."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(PROBE)],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RunError("speed probe did not start")
        self.start: list[float] = []
        self.cpu_s: list[float] = []

    def stop(self):
        """Stop sampling and collect the samples."""
        out, _ = self.proc.communicate(timeout=60)
        if self.proc.returncode != 0:
            raise RunError(f"speed probe exited with {self.proc.returncode}")
        samples = json.loads(out)
        self.start, self.cpu_s = samples["start"], samples["cpu_s"]

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def ref_seconds(self, a: float, b: float) -> float:
        return ref_seconds(self.start, self.cpu_s, a, b)


def ref_seconds(start: list[float], cpu_s: list[float], a: float, b: float) -> float:
    """Length of the interval [a, b] in reference seconds.

    Probe sample i stands for the machine's speed from its start to the next
    sample's start; each wall second of that stretch inside [a, b] counts
    PROBE_REF_CPU_S / cpu_s[i] reference seconds.
    """
    i = bisect.bisect_right(start, a) - 1
    if i < 0 or start[-1] < b:
        raise RunError("speed probe samples do not cover a timed interval")
    total = 0.0
    while start[i] < b:
        lo, hi = max(start[i], a), min(start[i + 1], b)
        total += (hi - lo) * PROBE_REF_CPU_S / cpu_s[i]
        i += 1
    return total


def launch(workload: str, seed: int, *extra: str) -> dict:
    """Start one case_runner process, wait for it, return its JSON result."""
    cmd = [sys.executable, str(RUNNER), "--workload", workload,
           "--seed", str(seed), *extra, "--launch", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"repetition exceeded {REP_TIMEOUT_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"case_runner exited with {proc.returncode}:\n"
                       f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "ratio" if name.endswith("yield") else "count"


def repeat(workload: str, seed: int, seconds: float, trace: bool):
    """Launches of one run: set-up probes, then repetitions until the time is
    used up.  Returns (set-up launches, {traced?: repetitions})."""
    start = time.monotonic()
    launch(workload, seed, "--setup-only")  # untimed: fills bytecode caches
    setup = [] if trace else [launch(workload, seed, "--setup-only")
                              for _ in range(SETUP_PROBES)]

    reps = {False: [], True: []}
    took: list[float] = []
    traced_next = trace
    while True:
        t0 = time.monotonic()
        rep_seed = seed + REP_SEED_STRIDE * len(reps[traced_next])
        reps[traced_next].append(
            launch(workload, rep_seed, "--trace", str(int(traced_next))))
        took.append(time.monotonic() - t0)
        if trace:
            traced_next = not traced_next
        have_both = reps[False] and (reps[True] or not trace)
        # start another repetition if it would end at least half inside the run
        if have_both and time.monotonic() + statistics.median(took) / 2 > start + seconds:
            return setup, reps


def measure(workload: str, seed: int, seconds: float, trace: bool):
    probe = SpeedProbe()
    try:
        setup, reps = repeat(workload, seed, seconds, trace)
        probe.stop()
    finally:
        probe.close()

    done = reps[False] + reps[True]
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    for r in done:
        for line in r["failures"]:
            print(f"FAILED {line}", file=sys.stderr)

    def wall_ref(r):
        return probe.ref_seconds(*r["span"])

    untraced = reps[False]
    raw = {"measured_wall_s": statistics.median(r["wall_s"] for r in untraced)}
    if not trace:
        values = {
            "wall_ref_s": statistics.median(map(wall_ref, untraced)),
            "setup_s": statistics.median(r["setup_s"] for r in setup + untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        traced = reps[True]
        metrics = {name: (statistics.median(r["layers"][name] for r in traced),
                          unit_of(name))
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (
            statistics.median(map(wall_ref, traced))
            - statistics.median(map(wall_ref, untraced)), "s")
    raw["slowest_case_ref_s"] = max(
        statistics.median(probe.ref_seconds(*r["case_spans"][i]) for r in untraced)
        for i in range(len(untraced[0]["case_spans"])))
    notes = f"{len(untraced)} untraced and {len(reps[True])} traced repetitions"
    return attempted, failed, notes, metrics, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spechtbranch benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # on SIGTERM, unwind so the running repetition is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    # the workload, the speed probe and this process share one CPU, so the
    # probe measures the CPU the workload runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        attempted, failed, notes, metrics, raw = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: medians of {notes}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48} {value:14.6f} {unit}")
    for name, value in raw.items():
        print(f"  {name:48} {value:14.6f} s (untraced, not in the result)")
    print(f"  {'failed_frac':48} {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted} verifier reports)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
