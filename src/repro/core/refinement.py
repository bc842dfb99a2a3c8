"""Refining wordlength information (paper section 2.4).

When the scheduled-and-bound datapath misses the user latency constraint,
Algorithm DPAlloc tightens the latency upper bound of exactly one
operation by deleting its ``H`` edges to its slowest compatible
resources.  The operation is picked from the **bound critical path**:

* the sequencing edge set ``S`` is augmented with ``S_b`` -- pairs of
  operations bound to the *same* resource instance back-to-back
  (``start(o1) + l(o1) == start(o2)``, ``l`` being the bound resource's
  latency, Eqn. 7);
* the bound critical path ``Q_b`` holds the zero-slack operations of the
  augmented graph (equal ASAP and ALAP times);
* the candidate subset ``W = {o in Q_b : start(o) + L_o <= lambda}``
  (as printed in the paper) is preferred; among candidates the paper
  selects the operation losing the smallest *proportion* of edges in
  ``{{o1, r} in H : exists {o, r} in H}``, breaking ties in favour of
  operations currently bound to a resource faster than their upper bound.

We add deterministic final tie-breaking (operation name) and fallbacks
(refinable members of ``Q_b``, then any refinable operation) so the outer
loop always makes progress or reports infeasibility.

``Q_b`` has one implementation, :func:`bound_critical_path`: a
from-scratch ASAP/ALAP sweep over integer ids, ordered by schedule
start.  Incremental and ``REPRO_SOLVER=scratch`` solves both call it,
as does the delta-replay recorder.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..resources.types import ResourceType
from .binding import Binding
from .problem import InfeasibleError
from .wcg import WordlengthCompatibilityGraph

__all__ = [
    "bound_critical_path",
    "candidate_set",
    "choose_refinement_op",
    "RefinementStep",
    "refine_once",
]


def bound_critical_path(
    names: Tuple[str, ...],
    graph_edges: Tuple[Tuple[str, str], ...],
    schedule: Mapping[str, int],
    binding: Binding,
    bound_latencies: Mapping[str, int],
) -> Set[str]:
    """``Q_b``: zero-slack operations of the augmented sequencing graph.

    Builds the edges of the augmented DAG ``P(O, S ∪ S_b)`` on per-call
    integer ids, runs one forward ASAP and one backward ALAP
    longest-path sweep with the *bound* latencies, and returns the ops
    whose ASAP and ALAP times coincide.

    Every augmented edge ``(u, v)`` satisfies ``start(u) + l(u) <=
    start(v)`` with ``l(u) >= 1``: schedules are built on the latency
    upper bounds ``L_o >= l(o)``, and ``S_b`` pairs are back-to-back by
    construction.  Schedule start is therefore a topological order, and
    the sweeps visit edges by their source's start.  Longest-path
    values on a DAG do not depend on which topological order is used,
    so the set is the same as from any other.

    Raises:
        ValueError: an augmented edge is not strictly start-ordered
            (this includes any cycle).
    """
    if not names:
        return set()
    index = {name: i for i, name in enumerate(names)}
    start = [schedule[name] for name in names]
    lat = [bound_latencies[name] for name in names]
    # Arcs as (start of source, source, target): sorted, every arc into
    # an op precedes every arc out of it, so one forward sweep settles
    # ASAP and one backward sweep settles ALAP.
    arcs: List[Tuple[int, int, int]] = []
    for u, v in graph_edges:
        i = index[u]
        arcs.append((start[i], i, index[v]))
    # S_b (Eqn. 7): o1 -> o2 on one unit when o1 finishes as o2 starts.
    for clique in binding.cliques:
        if len(clique.ops) < 2:
            continue
        ids = [index[name] for name in clique.ops]
        by_start: Dict[int, List[int]] = {}
        for i in ids:
            by_start.setdefault(start[i], []).append(i)
        for i in ids:
            for j in by_start.get(start[i] + lat[i], ()):
                if j != i:
                    arcs.append((start[i], i, j))
    arcs.sort()

    asap = [0] * len(names)
    for begin, u, v in arcs:
        if begin >= start[v]:
            raise ValueError(
                f"augmented edge {names[u]!r} -> {names[v]!r} is not "
                f"start-ordered ({begin} >= {start[v]})"
            )
        finish = asap[u] + lat[u]
        if finish > asap[v]:
            asap[v] = finish
    deadline = max(map(operator.add, asap, lat))

    alap = [deadline - latency for latency in lat]
    for _, u, v in reversed(arcs):
        latest = alap[v] - lat[u]
        if latest < alap[u]:
            alap[u] = latest

    return {name for name, a, b in zip(names, asap, alap) if a == b}


def candidate_set(
    q_b: Set[str],
    schedule: Mapping[str, int],
    upper_bounds: Mapping[str, int],
    latency_constraint: int,
) -> Set[str]:
    """``W``: bound-critical ops finishing before the constraint."""
    return {
        name
        for name in q_b
        if schedule[name] + upper_bounds[name] <= latency_constraint
    }


def _edge_loss_proportion(
    wcg: WordlengthCompatibilityGraph, name: str
) -> float:
    """Fraction of neighbourhood ``H`` edges a refinement of ``name`` deletes.

    Numerator: edges ``{name, r}`` with ``latency(r) == L_name`` (the ones
    the refinement deletes).  Denominator: all ``H`` edges incident to
    resources compatible with ``name`` -- the paper's
    ``{{o1, r} in H : exists {o, r} in H}``.
    """
    bound = wcg.upper_bound_latency(name)
    compatible = wcg.compatible_resources(name)
    deleted = sum(1 for r in compatible if wcg.latency(r) == bound)
    neighbourhood = sum(len(wcg.ops_for_resource(r)) for r in compatible)
    assert neighbourhood > 0
    return deleted / neighbourhood


def choose_refinement_op(
    wcg: WordlengthCompatibilityGraph,
    candidates: Set[str],
    binding: Optional[Binding],
    selector: str = "min-edge-loss",
    bound_faster: Optional[Mapping[str, int]] = None,
) -> Optional[str]:
    """Pick the candidate whose refinement loses the smallest edge share.

    The paper's section 2.4 selection rule.  Ties favour operations
    bound to a resource strictly faster than their latency upper bound
    (their binding never used the latency headroom, so removing it is
    free); remaining ties break on the name.  Returns ``None`` when no
    candidate is refinable.

    ``selector="name-order"`` replaces the paper's min-edge-loss rule by
    plain name order (ablation of the selection heuristic).

    ``bound_faster`` replaces the live ``binding`` in the tie-break with
    a recorded map of each operation's *bound resource latency* -- the
    delta-replay walk (:mod:`repro.core.delta`) has no binding for past
    iterations, only the recorded latencies, and the upper bounds come
    from the replayed ``wcg``.  When given, ``binding`` is ignored.
    """
    refinable = sorted(n for n in candidates if wcg.can_refine(n))
    if not refinable:
        return None
    if selector == "name-order":
        return refinable[0]
    if selector != "min-edge-loss":
        raise ValueError(f"unknown selector {selector!r}")

    def sort_key(name: str) -> Tuple[float, int, str]:
        proportion = _edge_loss_proportion(wcg, name)
        faster = 0
        if bound_faster is not None:
            latency = bound_faster.get(name)
            if latency is not None and latency < wcg.upper_bound_latency(name):
                faster = -1  # preferred
        elif binding is not None:
            try:
                resource = binding.resource_of(name)
                if wcg.latency(resource) < wcg.upper_bound_latency(name):
                    faster = -1  # preferred
            except KeyError:
                pass
        return (proportion, faster, name)

    return min(refinable, key=sort_key)


@dataclass(frozen=True)
class RefinementStep:
    """Record of one refinement: which op, which edges were deleted."""

    operation: str
    deleted: Tuple[ResourceType, ...]
    source: str  # "W", "Qb" or "any" -- which candidate pool supplied the op


def refine_once(
    wcg: WordlengthCompatibilityGraph,
    names: Tuple[str, ...],
    graph_edges: Tuple[Tuple[str, str], ...],
    schedule: Mapping[str, int],
    binding: Binding,
    latency_constraint: int,
    pools: Tuple[str, ...] = ("W", "Qb", "any"),
    selector: str = "min-edge-loss",
    bound_latencies: Optional[Mapping[str, int]] = None,
    upper_bounds: Optional[Mapping[str, int]] = None,
) -> RefinementStep:
    """One full refinement step of Algorithm DPAlloc.

    Tries the paper's candidate set ``W`` first, then the rest of the
    bound critical path, then (by default) any refinable operation.
    The ``pools`` argument lets the caller stop earlier -- DPAlloc uses
    ``("W", "Qb")`` so that when the bound critical path is unrefinable
    it can duplicate a unit instead of refining an unrelated operation.
    ``bound_latencies``/``upper_bounds`` accept the caller's already
    computed values (the solver pipeline derives both every iteration);
    omitted, each is recomputed here.  ``Q_b`` is computed only when a
    requested pool needs it.  Mutates ``wcg``.

    Raises:
        InfeasibleError: none of the requested pools contains a
            refinable operation.
    """
    if bound_latencies is None:
        bound_latencies = binding.bound_latencies(wcg)
    if upper_bounds is None:
        upper_bounds = wcg.upper_bound_latencies()
    q_b: Set[str] = set()
    if any(pool in ("W", "Qb") for pool in pools):
        q_b = bound_critical_path(
            names, graph_edges, schedule, binding, bound_latencies
        )

    for source in pools:
        if source == "any":
            candidates = set(names)
        elif source == "Qb":
            candidates = q_b
        elif source == "W":
            candidates = candidate_set(
                q_b, schedule, upper_bounds, latency_constraint
            )
        else:
            raise ValueError(f"unknown candidate pool {source!r}")
        chosen = choose_refinement_op(wcg, candidates, binding, selector)
        if chosen is not None:
            deleted = tuple(wcg.refine(chosen))
            return RefinementStep(chosen, deleted, source)

    raise InfeasibleError(
        f"latency constraint {latency_constraint} unreachable: no operation "
        f"in pools {pools} has refinable wordlength information left"
    )
