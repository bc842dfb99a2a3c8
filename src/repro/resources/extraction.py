"""Resource-set extraction: derive candidate ``R`` from the operation set ``O``.

Paper section 2.1: "An algorithm for extracting all possible resource
types from the set of operations is given in [5]."  Reference [5] is a
two-page letter not reprinted here, so we implement the natural complete
construction:

For every resource kind, the candidate wordlength vectors are the
cartesian grid of the canonical widths observed among the operations of
that kind (restricted to canonically-ordered vectors and to types that
cover at least one operation).  This grid is *sufficient*: the cheapest
resource able to execute any group of operations is the componentwise
maximum of their requirement vectors, whose coordinates are all observed
widths -- hence it lies in the grid.  No optimiser over ``R`` can be
improved by adding further types.

Optionally the grid is pruned of *redundant* types: a type is redundant
if another type covers a superset of the operations at no more area and
no more latency (such a type can never appear in an optimal or
heuristic-greedy solution, and dropping it shrinks every downstream
search).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..ir.ops import Operation
from .area import AreaModel
from .latency import LatencyModel
from .types import ResourceType

__all__ = [
    "extract_resource_set",
    "covering_resources",
    "dedicated_resource",
    "group_requirement",
    "cheapest_covering",
]


def dedicated_resource(op: Operation) -> ResourceType:
    """The minimal resource type executing exactly this operation."""
    return ResourceType(op.resource_kind, op.requirement)


def group_requirement(ops: Sequence[Operation]) -> ResourceType:
    """Minimal resource type covering a group of same-kind operations."""
    if not ops:
        raise ValueError("group must be non-empty")
    kinds = {op.resource_kind for op in ops}
    if len(kinds) != 1:
        raise ValueError(f"group mixes resource kinds: {sorted(kinds)}")
    arities = {len(op.requirement) for op in ops}
    if len(arities) != 1:
        raise ValueError("group mixes requirement arities")
    widths = tuple(
        max(op.requirement[i] for op in ops) for i in range(arities.pop())
    )
    return ResourceType(kinds.pop(), widths)


def _is_canonical(widths: Tuple[int, ...]) -> bool:
    """Canonical convention: non-increasing width vector."""
    return all(widths[i] >= widths[i + 1] for i in range(len(widths) - 1))


def _grid_for_kind(ops: Sequence[Operation]) -> List[ResourceType]:
    kind = ops[0].resource_kind
    arity = len(ops[0].requirement)
    axes = [sorted({op.requirement[i] for op in ops}) for i in range(arity)]
    grid: List[ResourceType] = []
    for widths in product(*axes):
        if not _is_canonical(widths):
            continue
        candidate = ResourceType(kind, widths)
        if any(candidate.covers(op) for op in ops):
            grid.append(candidate)
    return grid


def _prune_redundant(
    resources: List[ResourceType],
    ops: Sequence[Operation],
    latency_model: LatencyModel,
    area_model: AreaModel,
) -> List[ResourceType]:
    # ``resources`` are distinct (a grid).  Sorted, so that of types with
    # equal coverage, area and latency the smallest is kept.
    ordered = sorted(resources)
    # Per type, computed once: covered ops as a bitset, area, latency.
    cover = [
        sum(1 << i for i, op in enumerate(ops) if r.covers(op)) for r in ordered
    ]
    area = [area_model.area(r) for r in ordered]
    latency = [latency_model.latency(r) for r in ordered]
    kept: List[ResourceType] = []
    for i, r in enumerate(ordered):
        redundant = False
        for j in range(len(ordered)):
            if j == i:
                continue
            if (
                cover[j] | cover[i] == cover[j]
                and area[j] <= area[i]
                and latency[j] <= latency[i]
                and (
                    cover[j] != cover[i]
                    or area[j] < area[i]
                    or latency[j] < latency[i]
                    or j < i
                )
            ):
                redundant = True
                break
        if not redundant:
            kept.append(r)
    return kept


def extract_resource_set(
    ops: Iterable[Operation],
    latency_model: Optional[LatencyModel] = None,
    area_model: Optional[AreaModel] = None,
    prune: bool = True,
) -> Tuple[ResourceType, ...]:
    """All useful resource-wordlength types for the given operations.

    Args:
        ops: the operation set ``O``.
        latency_model, area_model: required when ``prune`` is true.
        prune: drop types dominated in coverage, area and latency.

    Returns:
        Sorted tuple of :class:`ResourceType`; every operation is covered
        by at least one returned type (its dedicated type survives
        pruning because nothing cheaper can cover it).
    """
    by_kind: Dict[Tuple[str, int], List[Operation]] = {}
    for op in ops:
        by_kind.setdefault((op.resource_kind, len(op.requirement)), []).append(op)

    resources: List[ResourceType] = []
    for grouped in by_kind.values():
        grid = _grid_for_kind(grouped)
        if prune:
            if latency_model is None or area_model is None:
                raise ValueError("pruning requires latency and area models")
            grid = _prune_redundant(grid, grouped, latency_model, area_model)
        resources.extend(grid)
    return tuple(sorted(resources))


def covering_resources(
    op: Operation, resources: Iterable[ResourceType]
) -> List[ResourceType]:
    """All resource types able to execute ``op``, sorted."""
    return sorted(r for r in resources if r.covers(op))


def cheapest_covering(
    requirement: ResourceType,
    resources: Iterable[ResourceType],
    area_model: AreaModel,
) -> ResourceType:
    """Cheapest resource type dominating ``requirement`` (ties: smallest type)."""
    candidates = [r for r in resources if r.dominates(requirement)]
    if not candidates:
        raise LookupError(f"no resource in set covers {requirement}")
    return min(candidates, key=lambda r: (area_model.area(r), r))
