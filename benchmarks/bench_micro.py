"""Kernel micro-benchmarks: the array-shaped inner loops vs their references.

Four inner-loop kernels run in integer/bitset shape while keeping their
decisions byte-identical to straightforward reference formulations:

* ``max_chain`` -- the id-space chain kernel exactly as Bindselect runs
  it on a cache miss (candidate op-id bitset decoded to ids, flat per-id
  ``start``/``L_o`` lists, retire-pointer O(k log k) DP) vs the
  quadratic name-keyed scan;
* the Bindselect **cover probe** -- :class:`~repro.core.binding.BindIndex`
  bitset AND + lowest-set-bit vs per-op set intersection + ``min``;
* the Eqn. 3 **tracker ops** -- scaled-integer
  :class:`~repro.core.scheduling.Eqn3Tracker` vs the retained
  ``Fraction`` reference;
* ``kind_cover`` -- the scheduling-set cover's bitset branch-and-bound
  (``WordlengthCompatibilityGraph.kind_cover``) vs the set-based
  branch-and-bound it replaced, over a trajectory of refined ``H``
  states.

This benchmark times each kernel against its in-process reference on
the same inputs, asserts the outputs agree (the byte-identity
contract), and emits ``BENCH_micro.json`` in the same report shape
``tools/check_bench.py`` consumes -- kernel-level regressions gate in
CI exactly like the family-level ones.  The headline statistics are
dimensionless within-host speedups, so they transfer across CI hosts.

Run with::

    PYTHONPATH=src python benchmarks/bench_micro.py [--repeats N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import tgff_problems  # noqa: E402  (shared problem grid)

from repro.core.binding import BindIndex, max_chain  # noqa: E402
from repro.core.scheduling import (  # noqa: E402
    Eqn3Tracker,
    Eqn3TrackerReference,
    list_schedule,
)
from repro.core.wcg import WordlengthCompatibilityGraph  # noqa: E402
from repro.utils.covering import set_bits  # noqa: E402


def reference_max_chain(candidates, schedule, latencies):
    """The quadratic name-keyed max-chain DP (reference semantics)."""
    if not candidates:
        return []
    ordered = sorted(candidates, key=lambda n: (schedule[n], n))
    best_len = {}
    best_pred = {}
    for i, name in enumerate(ordered):
        best_len[name] = 1
        best_pred[name] = None
        for prev in ordered[:i]:
            if schedule[prev] + latencies[prev] <= schedule[name]:
                if best_len[prev] + 1 > best_len[name]:
                    best_len[name] = best_len[prev] + 1
                    best_pred[name] = prev
    tail = max(ordered, key=lambda n: (best_len[n], n))
    chain = []
    cursor = tail
    while cursor is not None:
        chain.append(cursor)
        cursor = best_pred[cursor]
    chain.reverse()
    return chain


def reference_cheapest_covering(ops, wcg, area_model):
    """Cheapest resource with a current H edge to every op (Eqn. 4),
    by per-op set intersection + ``min``."""
    candidates = None
    for name in ops:
        compatible = set(wcg.compatible_resources(name))
        candidates = compatible if candidates is None else candidates & compatible
        if not candidates:
            return None
    return min(candidates, key=lambda r: (area_model.area(r), r))


def reference_greedy_unit_cover(universe, sets):
    """Unweighted Chvatal greedy over Python sets, reprs in every key."""
    chosen = []
    remaining = set(universe)
    while remaining:
        best_name, best_key = None, None
        for name in sorted(sets, key=repr):
            gain = len(sets[name] & remaining)
            if gain == 0:
                continue
            key = (gain / 1.0, -1.0, repr(name))
            if best_name is None or key > best_key:
                best_name, best_key = name, key
        chosen.append(best_name)
        remaining -= sets[best_name]
    return chosen


def reference_min_cover(universe, sets, exact_limit=24):
    """The set-based minimum-cardinality branch-and-bound ``kind_cover``
    ran before the bitset one: Python-set state, pivot and candidate
    order recomputed with ``repr`` inside every sort key."""
    if not universe:
        return []
    names = sorted(sets, key=repr)
    useful = [n for n in names if sets[n] & universe]
    if len(useful) > exact_limit:
        return reference_greedy_unit_cover(universe, {n: sets[n] for n in useful})
    best = reference_greedy_unit_cover(universe, {n: sets[n] for n in useful})
    max_gain = max(len(sets[n] & universe) for n in useful)

    def search(remaining, chosen):
        nonlocal best
        if not remaining:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        lower = (len(remaining) + max_gain - 1) // max_gain
        if len(chosen) + lower >= len(best):
            return
        pivot = min(
            remaining,
            key=lambda e: (sum(1 for n in useful if e in sets[n]), repr(e)),
        )
        candidates = [n for n in useful if pivot in sets[n]]
        candidates.sort(key=lambda n: (-len(sets[n] & remaining), repr(n)))
        for name in candidates:
            chosen.append(name)
            search(remaining - sets[name], chosen)
            chosen.pop()

    search(set(universe), [])
    return best


def build_inputs(num_ops: int):
    """A scheduled mid-size TGFF case: the kernels' natural inputs."""
    (_, problem), = tgff_problems([num_ops], 1, 0.3)
    wcg = WordlengthCompatibilityGraph(
        problem.graph.operations, problem.resource_set(), problem.latency_model
    )
    latencies = wcg.upper_bound_latencies()
    schedule = list_schedule(problem.graph, wcg, latencies)
    return problem, wcg, schedule, latencies


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - began)
    return best


def kernel_entry(name, calls, reference_seconds, kernel_seconds, identical):
    return {
        "name": name,
        "calls": calls,
        "reference_seconds": round(reference_seconds, 6),
        "kernel_seconds": round(kernel_seconds, 6),
        "speedup": round(reference_seconds / max(kernel_seconds, 1e-9), 3),
        "identical": identical,
    }


def bench_max_chain(wcg, schedule, latencies, repeats: int) -> dict:
    """Bindselect's id-space chain kernel vs the quadratic reference DP."""
    names = wcg.op_names
    start = [schedule[n] for n in names]
    latency = [latencies[n] for n in names]
    masks = [m for m in wcg.ops_masks() if m]
    name_sets = [[names[i] for i in set_bits(m)] for m in masks]
    identical = all(
        [names[i] for i in max_chain(set_bits(m), start, latency)]
        == reference_max_chain(c, schedule, latencies)
        for m, c in zip(masks, name_sets)
    )
    rounds = 5
    ref = best_of(
        lambda: [
            reference_max_chain(c, schedule, latencies)
            for _ in range(rounds)
            for c in name_sets
        ],
        repeats,
    )
    fast = best_of(
        lambda: [
            max_chain(set_bits(m), start, latency)
            for _ in range(rounds)
            for m in masks
        ],
        repeats,
    )
    return kernel_entry("max_chain", rounds * len(masks), ref, fast, identical)


def bench_cover_probe(problem, wcg, repeats: int) -> dict:
    """BindIndex bitset cover probe vs set-intersection + min."""
    area_model = problem.area_model
    index = BindIndex(wcg, area_model)
    index.sync(wcg)
    names = wcg.op_names
    # Sliding windows approximate the op subsets the grow step probes.
    windows = [
        list(range(i, i + width))
        for width in (2, 3, 5, 8)
        for i in range(0, max(1, len(names) - width), 2)
    ]
    name_windows = [[names[i] for i in w] for w in windows]

    def probe(ids):
        mask = index.cover_mask(ids)
        return index.resources[index.cheapest(mask)] if mask else None

    identical = all(
        probe(w) == reference_cheapest_covering(n, wcg, area_model)
        for w, n in zip(windows, name_windows)
    )
    rounds = 40
    ref = best_of(
        lambda: [
            reference_cheapest_covering(n, wcg, area_model)
            for _ in range(rounds)
            for n in name_windows
        ],
        repeats,
    )
    fast = best_of(
        lambda: [probe(w) for _ in range(rounds) for w in windows], repeats
    )
    return kernel_entry(
        "cover_probe", rounds * len(windows), ref, fast, identical
    )


def bench_kind_cover(wcg, repeats: int) -> dict:
    """Bitset branch-and-bound kind_cover vs the set-based reference.

    Inputs are the per-kind covers along a refinement trajectory: the
    WCG is refined op by op (sorted names, while refinable), and every
    fourth ``H`` state is kept.
    """
    states = [wcg.copy()]
    trajectory = wcg.copy()
    refined = 0
    for name in trajectory.op_names:
        while trajectory.can_refine(name):
            trajectory.refine(name)
            refined += 1
            if refined % 4 == 0:
                states.append(trajectory.copy())
    cases = []
    for state in states:
        for kind in state.kinds():
            universe = {
                n for n in state.op_names if state.operation(n).resource_kind == kind
            }
            sets = {
                r: set(state.ops_for_resource(r)) & universe
                for r in state.resources
                if r.kind == kind
            }
            cases.append((state, kind, universe, sets))
    identical = all(
        state.kind_cover(kind) == tuple(sorted(reference_min_cover(universe, sets)))
        for state, kind, universe, sets in cases
    )
    rounds = 3
    ref = best_of(
        lambda: [
            reference_min_cover(universe, sets)
            for _ in range(rounds)
            for _, _, universe, sets in cases
        ],
        repeats,
    )
    fast = best_of(
        lambda: [
            state.kind_cover(kind)
            for _ in range(rounds)
            for state, kind, _, _ in cases
        ],
        repeats,
    )
    return kernel_entry("kind_cover", rounds * len(cases), ref, fast, identical)


def bench_tracker_ops(wcg, latencies, repeats: int) -> dict:
    """Scaled-integer Eqn3Tracker vs the Fraction reference tracker."""
    kinds = {op.resource_kind for op in wcg.operations}
    constraints = {kind: 2 for kind in sorted(kinds)}
    names = sorted(op.name for op in wcg.operations)
    stream = [
        (name, (3 * i) % 17, max(1, latencies[name]))
        for i, name in enumerate(names)
    ]

    def drive(tracker_cls):
        tracker = tracker_cls(wcg, constraints)
        decisions = []
        for name, start, duration in stream:
            decisions.append(tracker.admits(name, start, duration))
            tracker.place(name, start, duration)
        decisions.extend(tracker.lhs(kind) for kind in sorted(kinds))
        return decisions

    identical = drive(Eqn3Tracker) == drive(Eqn3TrackerReference)
    rounds = 5
    ref = best_of(
        lambda: [drive(Eqn3TrackerReference) for _ in range(rounds)], repeats
    )
    fast = best_of(lambda: [drive(Eqn3Tracker) for _ in range(rounds)], repeats)
    return kernel_entry(
        "tracker_ops", rounds * len(stream), ref, fast, identical
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ops", type=int, default=64,
                        help="TGFF case size driving the kernels (default 64)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per kernel (best-of; default 3)")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_micro.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    problem, wcg, schedule, latencies = build_inputs(args.ops)
    kernels = [
        bench_max_chain(wcg, schedule, latencies, args.repeats),
        bench_cover_probe(problem, wcg, args.repeats),
        bench_tracker_ops(wcg, latencies, args.repeats),
        bench_kind_cover(wcg, args.repeats),
    ]
    report = {
        "kind": "bench-micro",
        "ops": args.ops,
        "repeats": args.repeats,
        "kernels": kernels,
        "results_identical": all(k.pop("identical") for k in kernels),
    }
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
