"""Solver-core benchmark: incremental vs scratch per-iteration cost.

Runs named DPAlloc workload families through the pass pipeline twice --
once with incremental recomputation (the default) and once with the
``REPRO_SOLVER=scratch`` escape hatch -- verifies the datapaths are
byte-identical, and emits ``BENCH_solver.json``: the solver's perf
trajectory across PRs (companion to ``BENCH_engine.json``).

Workload families (each exercises a different pass's reuse path):

* ``refinement-heavy`` -- mid-size TGFF graphs at ``lambda = lambda_min``
  so the refine-and-reschedule loop iterates many times; dominated by
  the bound-critical-path analysis
  (:func:`~repro.core.refinement.bound_critical_path`), rescheduling
  and the per-kind scheduling-set cover reuse.
* ``binding-heavy`` -- large TGFF graphs at a slightly relaxed
  constraint; per-iteration cost is dominated by Bindselect's max-chain
  greedy, the territory of :class:`~repro.core.binding.ChainCache`.

Each mode is timed best-of-``--repeats`` to suppress scheduler noise;
the headline statistic is per-iteration solve time, which incremental
recomputation must keep at or below scratch on every family.  One more,
untimed incremental run with ``trace=True`` records each family's
``pass_share``: the share of solve time spent in each pass (bounds,
schedule, bind, check, refine), summed from ``TraceEvent.pass_ms``.

Run with::

    PYTHONPATH=src python benchmarks/bench_solver.py [--repeats N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import tgff_problems  # noqa: E402  (shared problem grid)
from conftest import samples  # noqa: E402  (shared REPRO_SAMPLES helper)

from repro.core.solver import DPAllocOptions, run_pipeline  # noqa: E402
from repro.io.json_io import datapath_to_dict  # noqa: E402

# name -> (sizes, default samples per size, relaxation over lambda_min)
WORKLOADS = {
    # lambda = lambda_min: reachable only after many refinement
    # iterations -- the loop the incremental refine/schedule reuse targets.
    "refinement-heavy": ((48, 64, 96), 2, 0.0),
    # Large graphs, mild slack: few-but-expensive iterations where
    # Bindselect's max-chain greedy dominates the per-iteration cost.
    "binding-heavy": ((128, 160), 1, 0.05),
}


def canonical(datapath) -> str:
    return json.dumps(datapath_to_dict(datapath), sort_keys=True)


def time_mode(problems, mode: str, repeats: int):
    """Best-of-``repeats`` total seconds plus the datapaths of one run."""
    options = DPAllocOptions()
    best = float("inf")
    datapaths = []
    for _ in range(repeats):
        began = time.perf_counter()
        produced = [run_pipeline(p, options, mode=mode) for _, p in problems]
        elapsed = time.perf_counter() - began
        if elapsed < best:
            best = elapsed
            datapaths = produced
    return best, datapaths


PASSES = ("bounds", "schedule", "bind", "check", "refine")


def pass_shares(problems) -> dict:
    """Share of incremental solve time per pass, from the solver's trace."""
    totals = dict.fromkeys(PASSES, 0.0)
    for _, problem in problems:
        datapath = run_pipeline(
            problem, DPAllocOptions(trace=True), mode="incremental"
        )
        for event in datapath.trace:
            for name, ms in (event.pass_ms or {}).items():
                totals[name] += ms
    whole = sum(totals.values()) or 1.0
    return {name: round(ms / whole, 4) for name, ms in totals.items()}


def run_workload(name: str, problems, repeats: int) -> dict:
    """Scratch-vs-incremental timing and parity for one workload family."""
    scratch_seconds, scratch_dps = time_mode(problems, "scratch", repeats)
    incr_seconds, incr_dps = time_mode(problems, "incremental", repeats)

    mismatched = [
        label
        for (label, _), a, b in zip(problems, scratch_dps, incr_dps)
        if canonical(a) != canonical(b)
    ]
    if mismatched:
        raise AssertionError(
            f"{name}: incremental solves diverged from scratch on: {mismatched}"
        )

    iterations = sum(dp.iterations for dp in scratch_dps)
    multi_iteration = sum(1 for dp in scratch_dps if dp.iterations > 1)
    if not multi_iteration:
        raise AssertionError(
            f"{name}: workload produced no multi-iteration refinement runs"
        )

    return {
        "name": name,
        "cases": [
            {
                "label": label,
                "ops": len(problem.graph),
                "iterations": dp.iterations,
            }
            for (label, problem), dp in zip(problems, scratch_dps)
        ],
        "total_iterations": iterations,
        "multi_iteration_cases": multi_iteration,
        "scratch_seconds": round(scratch_seconds, 4),
        "incremental_seconds": round(incr_seconds, 4),
        "scratch_ms_per_iteration": round(1000 * scratch_seconds / iterations, 4),
        "incremental_ms_per_iteration": round(
            1000 * incr_seconds / iterations, 4
        ),
        "speedup": round(scratch_seconds / max(incr_seconds, 1e-9), 3),
        "pass_share": pass_shares(problems),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=None,
                        help="graphs per size (default REPRO_SAMPLES or the "
                             "per-workload default)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repeats per mode (best-of; default 2)")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_solver.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    reports = []
    for name, (sizes, default_samples, relaxation) in WORKLOADS.items():
        per_size = (
            args.samples if args.samples is not None else samples(default_samples)
        )
        problems = tgff_problems(sizes, per_size, relaxation)
        entry = run_workload(name, problems, args.repeats)
        entry.update(
            sizes=list(sizes), relaxation=relaxation, samples_per_size=per_size
        )
        reports.append(entry)

    scratch_total = sum(w["scratch_seconds"] for w in reports)
    incr_total = sum(w["incremental_seconds"] for w in reports)
    report = {
        "kind": "bench-solver",
        "repeats": args.repeats,
        "workloads": reports,
        "total_iterations": sum(w["total_iterations"] for w in reports),
        "scratch_seconds": round(scratch_total, 4),
        "incremental_seconds": round(incr_total, 4),
        "speedup": round(scratch_total / max(incr_total, 1e-9), 3),
        "results_identical": True,
    }
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
