"""Golden canonical envelopes: a fixed corpus must keep its exact bytes.

The parity sweep compares the incremental solver with the
``REPRO_SOLVER=scratch`` reference, so a refactor that changes both
paths alike passes it.  This test pins the answers themselves: for a
seeded corpus of TGFF problems, every registered allocator's envelope
is hashed (sha256 of ``canonical_json()``) and compared with the
committed ``tests/data/golden_envelopes.json``.

The corpus covers 16-48 op problems at the paper's three relaxations
(0, 0.05 and 0.3 of the minimum latency), DPAlloc in ``min-units`` and
``asap`` mode, a few resource-constrained problems, and the ILP on
problems of at most 10 operations.

Regenerate the file only when an answer is meant to change::

    PYTHONPATH=src python tests/test_golden_envelopes.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

from repro.core.problem import Problem
from repro.engine import AllocationRequest, Engine, allocator_names
from repro.gen.tgff import random_sequencing_graph

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_envelopes.json"
RELAXATIONS = (0.0, 0.05, 0.3)
HEURISTIC_SIZES = (16, 24, 32, 48)
ILP_SIZES = (6, 10)
GRAPH_SEED = 12_000


def _problem(num_ops: int, seed: int, relaxation: float, **kw) -> Problem:
    graph = random_sequencing_graph(num_ops, seed)
    loose = Problem(graph, latency_constraint=1_000_000, **kw)
    return loose.with_latency_constraint(
        max(1, int(loose.minimum_latency() * (1.0 + relaxation)))
    )


def corpus() -> Iterator[Tuple[str, AllocationRequest]]:
    """``(case id, request)`` for every golden case, in a fixed order."""
    heuristics = [name for name in allocator_names() if name != "ilp"]
    for size in HEURISTIC_SIZES:
        # Two-stage takes seconds per solve at 48 ops; it stops at 32.
        names = [n for n in heuristics if n != "two-stage" or size <= 32]
        for r_index, relaxation in enumerate(RELAXATIONS):
            seed = GRAPH_SEED + 10 * size + r_index
            problem = _problem(size, seed, relaxation)
            case = f"tgff-{size}-{seed}-r{relaxation}"
            for name in names:
                yield f"{case}/{name}", AllocationRequest(problem, name)
            yield f"{case}/dpalloc-asap", AllocationRequest(
                problem, "dpalloc", {"mode": "asap"}
            )
    for size in ILP_SIZES:
        for r_index, relaxation in enumerate(RELAXATIONS):
            seed = GRAPH_SEED + 10 * size + r_index
            problem = _problem(size, seed, relaxation)
            case = f"tgff-{size}-{seed}-r{relaxation}"
            for name in ("dpalloc", "ilp"):
                yield f"{case}/{name}", AllocationRequest(problem, name)
    # Resource-constrained: N_y ceilings that bind.  The first case is
    # infeasible on purpose: an infeasible envelope is an answer too.
    for size, limits, relaxation in (
        (16, {"mul": 2, "add": 2}, 0.3),
        (24, {"mul": 6}, 0.3),
        (24, {"mul": 3, "add": 3}, 0.3),
        (32, {"mul": 4, "add": 3}, 0.3),
        (32, {"mul": 6}, 1.0),
    ):
        seed = GRAPH_SEED + 7 * size
        problem = _problem(size, seed, relaxation, resource_constraints=limits)
        case = f"tgff-{size}-{seed}-limits-" + "-".join(
            f"{kind}{limit}" for kind, limit in sorted(limits.items())
        ) + f"-r{relaxation}"
        for mode in ("min-units", "asap"):
            yield f"{case}/dpalloc-{mode}", AllocationRequest(
                problem, "dpalloc", {"mode": mode}
            )
        yield f"{case}/two-stage", AllocationRequest(problem, "two-stage")


def digests() -> Dict[str, str]:
    """Case id -> sha256 of the canonical envelope JSON."""
    engine = Engine()
    return {
        case: hashlib.sha256(
            engine.run(request).canonical_json().encode()
        ).hexdigest()
        for case, request in corpus()
    }


@pytest.fixture(scope="module")
def fresh() -> Dict[str, str]:
    return digests()


def test_corpus_matches_the_golden_file(fresh):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(fresh) == sorted(golden), "corpus cases changed"
    changed = sorted(case for case in golden if fresh[case] != golden[case])
    assert not changed, f"{len(changed)} envelopes changed: {changed[:10]}"


def test_corpus_reaches_every_allocator():
    reached = {request.allocator for _, request in corpus()}
    assert reached == set(allocator_names())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_envelopes.py --write")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
