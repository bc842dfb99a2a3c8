"""Steadiness check: run workloads repeatedly and report each metric's
spread against the bound ``BENCHMARK.json`` gives it.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload cold-sweep --runs 5
    python3 perfbench/steady.py --runs 10                # every workload

The runs of a workload are made twice, in two rounds over the same
seeds (``--first-seed``, ``+1``, ...).  For every end-to-end metric and
each round it prints the median and the quartile spread
(``(q3 - q1) / median``) of the runs, the metric's bound, and a verdict:
``steady`` below a third of the bound, ``within`` up to the bound,
``UNSTEADY`` above it.  It then compares the second round's median with
the first's: ``ok`` when it is worse by no more than the bound, else
``DRIFT``.  The exit code is 1 when any metric is unsteady in either
round or drifts.  Each run gets a session of its own; a run that fails,
or leaves any process of that session running after it exits, stops
the check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.config import CONFIG  # noqa: E402
from perfbench.measure import process_table, spread  # noqa: E402

ROUNDS = 2


def _one_run(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    command = list(CONFIG["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    with subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as child:
        try:
            stdout, _ = child.communicate(timeout=600)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    lines = stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {}
    if child.returncode != 0 or not report.get("correct") or report["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run failed:\n{stdout}")
    # The run was its session's leader: anything still in that session
    # is a process it started and did not stop.
    left = [pid for pid, _, session in process_table() if session == child.pid]
    if left:
        raise SystemExit(f"{workload} seed {seed}: processes left running: {left}")
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def _worse_by(metric: dict, new: float, old: float) -> float:
    """How much worse ``new`` is than ``old`` as a share of ``old``."""
    worse = old - new if metric["better"] == "higher" else new - old
    return worse / old if old else 0.0


def main(argv=None) -> int:
    names = [w["name"] for w in CONFIG["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per round (at least 2)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=CONFIG["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    status = 0
    for workload in args.workload or names:
        medians: List[Dict[str, float]] = []
        for round_index in range(ROUNDS):
            runs = []
            for offset in range(args.runs):
                seed = args.first_seed + offset
                runs.append(_one_run(workload, seed, args.seconds))
                print(f"{workload} round {round_index + 1} seed {seed}: "
                      + json.dumps(runs[-1]), flush=True)
            print(f"\n{workload}, round {round_index + 1}, {args.runs} runs")
            print(f"  {'metric':22s} {'median':>12s} {'spread':>8s} "
                  f"{'bound':>6s}  verdict")
            medians.append({})
            for metric in CONFIG["end_to_end"]:
                name = metric["name"]
                values = [run[name] for run in runs]
                medians[-1][name] = statistics.median(values)
                share = spread(values)
                bound = metric["bound"]
                verdict = (
                    "steady" if share < bound / 3
                    else "within" if share <= bound else "UNSTEADY"
                )
                if verdict == "UNSTEADY":
                    status = 1
                print(f"  {name:22s} {medians[-1][name]:12.6g} "
                      f"{share:8.4f} {bound:6.3f}  {verdict}")
        print(f"\n{workload}: second round against the first")
        for metric in CONFIG["end_to_end"]:
            name = metric["name"]
            drift = _worse_by(metric, medians[1][name], medians[0][name])
            verdict = "ok" if drift <= metric["bound"] else "DRIFT"
            if verdict == "DRIFT":
                status = 1
            print(f"  {name:22s} worse by {drift:+.4f} "
                  f"(bound {metric['bound']:.3f})  {verdict}")
        print(flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
