"""The machine's speed under the served workload's load, sampled from a
process of its own.

Usage, from the root of a checkout::

    python3 perfbench/speedprobe.py

Every :data:`PERIOD_S` seconds it forks a child that writes to
:data:`TOUCHED` bytes of a ballast buffer (copy-on-write page faults),
runs :func:`perfbench.measure.calibration_loop` :data:`LOOPS` times and
exits, and prints the seconds from fork to reaping that child.  It stops when its
standard input closes.

A served request is forked, faulted in, run in Python and reaped in
just this way by the worker's process executor, and it shares the two
cores with every other process of the topology.  The pure-Python loop
of the closed loops, run alone in the benchmark process, did not track
``fleet-cold``'s latencies; this probe, run through the timed phase,
does (see ``perfbench/README.md``).  It imports nothing from the
program, so its size and its cost do not change with the code measured.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.measure import calibration_loop  # noqa: E402

#: Seconds between samples.
PERIOD_S = 0.1
#: Size of the ballast buffer, about that of one ``repro serve`` worker's heap.
BALLAST = 32 << 20
#: Bytes of the ballast the child writes to, one byte a page.
TOUCHED = 2 << 20
#: Calibration loops the child runs (about 5 ms of Python).
LOOPS = 5
#: Seconds one probe takes at the reference speed.
REFERENCE_S = 0.01


def probe(ballast: bytearray) -> float:
    """Seconds to fork, fault in, run and reap one child."""
    began = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        for offset in range(0, TOUCHED, 4096):
            ballast[offset] = 1
        for _ in range(LOOPS):
            calibration_loop()
        os._exit(0)
    os.waitpid(pid, 0)
    return time.perf_counter() - began


def main() -> int:
    ballast = bytearray(BALLAST)
    for offset in range(0, BALLAST, 4096):
        ballast[offset] = 1  # resident, so every fork copies its page tables
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        print(probe(ballast), flush=True)
    return 0


class SpeedProbe:
    """Run ``perfbench/speedprobe.py`` while a ``with`` block runs;
    ``samples`` holds its probe times afterwards."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def __enter__(self) -> "SpeedProbe":
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        child = self._child
        try:
            child.stdin.close()
            output = child.stdout.read()
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
            child.wait()
        self.samples = [float(line) for line in output.split()]


if __name__ == "__main__":
    raise SystemExit(main())
