"""Speed probe: how fast the CPU the benchmark runs on is, moment by moment.

The machine this benchmark was written on switches between speed states about
1.6x apart every few seconds (a shared host), so raw wall times of the same
code spread by 30-60% between runs.  ``run.py`` starts this probe on the CPU
that also runs the workload, at the lowest priority, so it gets a small slice
of that CPU between the workload's time slices.  It runs one fixed chunk of
interpreter work again and again and records when each chunk started and how
much CPU time it took.  A chunk's CPU time is how slow the CPU was at that
moment; ``run.py`` rescales workload times by it.

The chunk does dict lookups at scattered keys in a 200,000-entry dict, so it
misses the caches the way the package's tabloid dicts and Fraction matrices do.

Protocol: the probe prints ``ready`` once its dict is built, samples until its
standard input is closed, then prints the samples as one JSON object
``{"start": [...], "cpu_s": [...]}`` (``time.monotonic`` seconds) and exits.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from array import array

KEYS = 200_000
LOOKUPS = 600  # per chunk, about 0.2 ms of CPU time


def main() -> int:
    os.nice(19)
    table = {(i, 3 * i): i for i in range(KEYS)}
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()),
                     daemon=True).start()
    starts, cpu = array("d"), array("d")
    j = 0
    print("ready", flush=True)
    while not stop.is_set():
        t = time.monotonic()
        c = time.thread_time()
        for _ in range(LOOKUPS):
            j = (j * 1103515245 + 12345) % KEYS
            table[j, 3 * j]
        cpu.append(time.thread_time() - c)
        starts.append(t)
    json.dump({"start": starts.tolist(), "cpu_s": cpu.tolist()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
