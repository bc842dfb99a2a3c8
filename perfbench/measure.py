"""Statistics and process measurements shared by every workload."""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: Percentiles the tail metric may report, lowest first.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def nearest_rank(ordered: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile of sorted ``ordered`` and the number of
    samples strictly after its rank."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values: Iterable[float]) -> Tuple[float, float, int]:
    """``(percentile, value, beyond)`` for the highest grid percentile
    with at least :data:`TAIL_BEYOND` samples beyond it.

    Falls back to the median when the sample is too small for any
    grid point to qualify (fewer than twenty samples).
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    chosen = TAIL_GRID[0]
    for pct in TAIL_GRID:
        if nearest_rank(ordered, pct)[1] >= TAIL_BEYOND:
            chosen = pct
    value, beyond = nearest_rank(ordered, chosen)
    return chosen, value, beyond


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(value) for value in values]
    if not logs:
        raise ValueError("no samples")
    return math.exp(sum(logs) / len(logs))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


#: Iterations of the calibration loop (about a millisecond of work).
CALIBRATION_ITERATIONS = 10_000
#: Seconds one calibration loop takes at the reference speed.  Times are
#: reported at this speed: a run on a box whose calibration loop takes
#: 1.5 ms divides its timings by 1.5.
CALIBRATION_REFERENCE_S = 0.001


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop, right now."""
    began = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_ITERATIONS):
        total += value * value % 7
    return time.perf_counter() - began


class Speed:
    """How fast the machine runs Python while a phase is measured.

    The box this benchmark runs on is shared: the same fixed loop runs
    up to 1.5x slower for stretches of seconds to many minutes, and that
    moves every timing with it.  Samples of :func:`calibration_loop`
    taken through a phase give its ``factor``, the phase's slowdown
    against :data:`CALIBRATION_REFERENCE_S`; reported times are divided
    by it (rates multiplied), so they read as times at the reference
    speed.  The served workload fills ``samples`` from
    :mod:`perfbench.speedprobe` instead, against that probe's own
    ``reference_s``.
    """

    def __init__(
        self,
        samples: Sequence[float] = (),
        reference_s: float = CALIBRATION_REFERENCE_S,
    ) -> None:
        self.samples: List[float] = list(samples)
        self.reference_s = reference_s

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(calibration_loop())

    @property
    def factor(self) -> float:
        return statistics.median(self.samples) / self.reference_s


def process_table() -> List[Tuple[int, int, int]]:
    """``(pid, parent pid, session id)`` of every live process, from
    ``/proc`` (zombies included: they still need their parent's wait)."""
    table = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we looked
        table.append((int(stat.parent.name), int(fields[1]), int(fields[3])))
    return table


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Result:
    """What one benchmark run reports: metrics plus the outcome counts."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: List[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def flag(self, reason: str) -> None:
        """Record one wrong answer (kept to the first few reasons)."""
        self.wrong += 1
        if len(self.problems) < 5:
            self.problems.append(reason)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.attempted > 0

    def emit(self) -> str:
        """Print the human-readable report, then the JSON line."""
        print(f"workload {self.workload}")
        for text in self.notes:
            print(f"  note  {text}")
        for name, (value, unit) in self.metrics.items():
            print(f"  {name:44s} {value:14.6g} {unit}")
        print(
            f"  attempted {self.attempted}  failed {self.failed}  "
            f"wrong {self.wrong}  "
            f"error_rate {self.failed / max(1, self.attempted):.6f}  "
            f"wrong_rate {self.wrong / max(1, self.attempted):.6f}"
        )
        for reason in self.problems:
            print(f"  WRONG {reason}")
        line = json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0],
                       "unit": self.metrics[name][1]}
                for name in self.metrics
            },
        })
        print(line, flush=True)
        return line
