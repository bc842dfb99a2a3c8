"""Seeded workload inputs.

Everything here is a pure function of ``--seed`` (and the planned
operation count): the program only ever receives what these functions
produce.  Problems are TGFF-style random sequencing graphs, the paper's
own evaluation family, at a latency constraint relaxed from the
problem's minimum latency.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from repro.core.delta import (
    ConstraintEdit,
    DeadlineEdit,
    WordlengthEdit,
    apply_edits,
)
from repro.core.problem import Problem
from repro.gen.tgff import random_sequencing_graph

#: The paper's relaxations of the minimum latency (0 %, 5 %, 30 %).
RELAXATIONS = (0.0, 0.05, 0.3)


def tgff_problem(num_ops: int, graph_seed: int, relaxation: float) -> Problem:
    # The constraint is relaxed from the minimum latency the way the
    # paper's experiments do it (``repro.experiments.common``), which is
    # not imported so that the set-up probe loads only the engine.
    graph = random_sequencing_graph(num_ops, graph_seed)
    unconstrained = Problem(graph, latency_constraint=1_000_000)
    lambda_min = unconstrained.minimum_latency()
    return unconstrained.with_latency_constraint(
        max(1, int(lambda_min * (1.0 + relaxation)))
    )


def stratified_problems(
    rng: random.Random, sizes: Sequence[int], count: int
) -> List[Problem]:
    """``count`` problems cycling through every (size, relaxation)
    stratum in a shuffled order, so each prefix keeps the mix fixed."""
    strata = list(itertools.product(sizes, RELAXATIONS))
    problems: List[Problem] = []
    while len(problems) < count:
        rng.shuffle(strata)
        for num_ops, relaxation in strata[: count - len(problems)]:
            problems.append(
                tgff_problem(num_ops, rng.randrange(1 << 30), relaxation)
            )
    return problems


# ----------------------------------------------------------------------
# edit sessions
# ----------------------------------------------------------------------

#: One cycle of step kinds per base: revisits of an earlier state (R),
#: deadline moves (D), a wordlength edit (W) and a constraint edit (C).
#: The shares are a steadiness choice, not a measured usage mix: with
#: revisits -- answered from the result cache -- the majority, the median
#: lies inside that one narrow mode instead of between the modes of the
#: delta strategies.  The delta solves (D, W, C) set the tail and most of
#: the run's time.  Deadline moves never return to a visited state, so
#: they always reach a delta solve.
STEP_CYCLE = ("R",) * 8 + ("D",) * 2 + ("W", "C")
#: Deadline moves, in clock cycles.  Nudges only: jumps of eight cycles
#: mostly diverge, and the share of diverged steps then swung the median
#: from seed to seed.
DEADLINE_MOVES = (-2, -1, 1, 2)
#: Wordlength edits, in bits per operand: a precision nudge keeps the
#: edited problem close to the chain's current state, whose base is
#: fixed, instead of redrawing an operation's widths.
WIDTH_NUDGES = (-3, -2, -1, 1, 2, 3)
WIDTH_FLOOR = 2


@dataclass(frozen=True)
class EditStep:
    """One ``run_delta`` call of an edit session."""

    label: str
    base_fingerprint: str
    edits: tuple
    edited: Problem


def _edits_between(current: Problem, target: Problem) -> tuple:
    """Edits taking ``current`` to ``target`` (same graph structure)."""
    edits: list = []
    for op in target.graph.operations:
        if current.graph.operation(op.name).operand_widths != op.operand_widths:
            edits.append(WordlengthEdit(op.name, op.operand_widths))
    now = dict(current.resource_constraints or {})
    then = dict(target.resource_constraints or {})
    for kind in sorted(set(now) | set(then)):
        if now.get(kind) != then.get(kind):
            edits.append(ConstraintEdit(kind, then.get(kind)))
    if current.latency_constraint != target.latency_constraint:
        edits.append(DeadlineEdit(target.latency_constraint))
    return tuple(edits)


def _deadline_step(
    rng: random.Random, current: Problem, visited: Set[str]
) -> tuple:
    floor = current.minimum_latency()
    lam = current.latency_constraint
    candidates = [
        max(floor, lam + rng.choice(DEADLINE_MOVES))
        for _ in range(16)
    ]
    for target in itertools.chain(candidates, itertools.count(lam + 1)):
        edit = (DeadlineEdit(target),)
        if target != lam and apply_edits(current, edit).fingerprint() not in visited:
            return edit
    raise AssertionError("unreachable: the deadlines above are unbounded")


def _wordlength_step(rng: random.Random, current: Problem) -> tuple:
    # A precision nudge: every operand of one operation gains or loses up
    # to WIDTH_NUDGE bits (not below WIDTH_FLOOR).
    name = rng.choice(current.graph.names)
    widths = current.graph.operation(name).operand_widths
    nudged = tuple(
        max(WIDTH_FLOOR, width + rng.choice(WIDTH_NUDGES)) for width in widths
    )
    edit = WordlengthEdit(name, nudged)
    edited = apply_edits(current, (edit,))
    floor = edited.minimum_latency()
    if floor > current.latency_constraint:
        # Keep the session feasible: a widened operation that no longer
        # fits comes with the deadline move a designer would make.
        return edit, DeadlineEdit(floor)
    return (edit,)


def _constraint_step(rng: random.Random, current: Problem) -> tuple:
    # A limit of one unit per operation of the kind never binds, so the
    # edit changes the problem's identity (and forces the scratch path)
    # without making the session infeasible.
    limits = dict(current.resource_constraints or {})
    kinds = sorted({op.resource_kind for op in current.graph.operations})
    kind = rng.choice(kinds)
    if kind in limits:
        return (ConstraintEdit(kind, None),)
    count = sum(1 for op in current.graph.operations if op.resource_kind == kind)
    return (ConstraintEdit(kind, count),)


def edit_session(
    rng: random.Random,
    bases: Sequence[Problem],
    count: int,
) -> List[EditStep]:
    """``count`` steps interleaving one edit chain per base problem.

    Each chain works through :data:`STEP_CYCLE` in a shuffled order; a
    chain opens with an edit, since there is nothing to revisit yet, and
    a revisit returns to the state one or two steps back, which the
    result cache has seen.
    """
    histories: List[List[Problem]] = [[base] for base in bases]
    visited: List[Set[str]] = [{base.fingerprint()} for base in bases]
    cycles: List[List[str]] = [[] for _ in bases]
    steps: List[EditStep] = []
    for index in range(count):
        chain = index % len(bases)
        history = histories[chain]
        current = history[-1]
        if not cycles[chain]:
            cycle = list(STEP_CYCLE)
            rng.shuffle(cycle)
            if len(history) == 1:  # steps pop from the end
                edit = max(i for i, kind in enumerate(cycle) if kind != "R")
                cycle[edit], cycle[-1] = cycle[-1], cycle[edit]
            cycles[chain] = cycle
        kind = cycles[chain].pop()
        if kind == "R":
            target = history[-1 - rng.randint(1, min(2, len(history) - 1))]
            edits = _edits_between(current, target)
            edited = target
        else:
            if kind == "W":
                edits = _wordlength_step(rng, current)
            elif kind == "C":
                edits = _constraint_step(rng, current)
            else:
                edits = _deadline_step(rng, current, visited[chain])
            edited = apply_edits(current, edits)
        steps.append(EditStep(
            label=f"e{index}",
            base_fingerprint=current.fingerprint(),
            edits=edits,
            edited=edited,
        ))
        history.append(edited)
        visited[chain].add(edited.fingerprint())
    return steps


# ----------------------------------------------------------------------
# open-loop request streams
# ----------------------------------------------------------------------

def poisson_offsets(rng: random.Random, rate: float, count: int) -> List[float]:
    """Due times (seconds from the start) of ``count`` Poisson arrivals
    at ``rate`` per second, conditioned on spanning ``count / rate``
    seconds: given their number, Poisson arrival times are uniform order
    statistics.  Fixing the span keeps the offered rate the same in
    every run."""
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


def fleet_stream(
    rng: random.Random,
    pool: Sequence[Problem],
    rate: float,
    count: int,
    repeat_share: float,
    duplicate_share: float,
) -> Tuple[List[float], List[int], List[Problem]]:
    """Arrivals for the fleet: mostly distinct problems, taken from
    ``pool`` in order, a share that repeat an earlier request's problem,
    and a share that arrive as a near-simultaneous pair with the
    previous arrival.

    Returns ``(offsets, problem index per arrival, problems)``.
    """
    offsets = poisson_offsets(rng, rate, count)
    fresh = iter(pool)
    problems: List[Problem] = []
    chosen: List[int] = []
    for index in range(count):
        roll = rng.random()
        if index and roll < duplicate_share:
            offsets[index] = min(offsets[index], offsets[index - 1] + 0.001)
            chosen.append(chosen[-1])
        elif problems and roll < duplicate_share + repeat_share:
            chosen.append(rng.randrange(len(problems)))
        else:
            problems.append(next(fresh))
            chosen.append(len(problems) - 1)
    return offsets, chosen, problems


def warmup_problem() -> Problem:
    """The fixed problem every set-up ends with (one full solve)."""
    return tgff_problem(16, 2001, 0.05)


def seeded(seed: int, stream: str) -> random.Random:
    """An independent RNG per input stream of one seed."""
    return random.Random(f"{stream}:{seed}")

