"""Set-covering utilities.

Two covering problems appear in the paper:

* section 2.2 needs a **minimum-cardinality scheduling set** ``S ⊆ R``
  such that every operation is covered by some member -- solved here
  exactly by branch-and-bound (``R`` is small) with a greedy fallback for
  pathological inputs;
* section 2.3 reduces binding to **weighted unate covering** (Eqn. 6),
  solved by an implicit adaptation of Chvátal's greedy heuristic [1]
  in :mod:`repro.core.binding`; the explicit version is here.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Set, Tuple

__all__ = ["cover_bits", "greedy_weighted_cover", "min_cardinality_cover", "set_bits"]

Element = Hashable
SetName = Hashable


def _require_coverable(universe: Set[Element], sets: Mapping[SetName, Set[Element]]) -> None:
    union_all: Set[Element] = set().union(*sets.values())
    if not universe <= union_all:
        raise ValueError(f"uncoverable elements: {sorted(universe - union_all)!r}")


def greedy_weighted_cover(
    universe: Set[Element],
    sets: Mapping[SetName, Set[Element]],
    cost: Mapping[SetName, float],
) -> List[SetName]:
    """Chvátal's greedy heuristic for weighted set cover.

    Repeatedly picks the set maximising (newly covered elements) / cost.
    Ties are broken on lower cost, then on the set name for determinism.

    Raises ``ValueError`` if the union of sets does not cover the universe.
    """
    _require_coverable(universe, sets)

    reprs = {name: repr(name) for name in sets}
    chosen: List[SetName] = []
    remaining = set(universe)
    while remaining:
        best_name = None
        best_key: Tuple[float, float, str] = (0.0, 0.0, "")
        for name in sorted(sets, key=reprs.__getitem__):
            gain = len(sets[name] & remaining)
            if gain == 0:
                continue
            key = (gain / cost[name], -cost[name], reprs[name])
            if best_name is None or key > best_key:
                best_name, best_key = name, key
        assert best_name is not None  # guaranteed by the coverage check
        chosen.append(best_name)
        remaining -= sets[best_name]
    return chosen


def min_cardinality_cover(
    universe: Set[Element],
    sets: Mapping[SetName, Set[Element]],
    exact_limit: int = 24,
) -> List[SetName]:
    """Minimum-cardinality set cover.

    Exact branch-and-bound when the number of candidate sets does not
    exceed ``exact_limit``; otherwise the unweighted greedy heuristic
    (whose ln-approximation is ample for the scheduling-set role).
    Deterministic: candidates are explored in sorted order.  Interns the
    elements to bits and runs :func:`cover_bits`.
    """
    _require_coverable(universe, sets)
    names = list(sets)
    elements = list(universe)
    bit = {e: 1 << i for i, e in enumerate(elements)}
    masks = [sum(bit[e] for e in sets[n] if e in bit) for n in names]
    chosen = cover_bits(
        (1 << len(elements)) - 1,
        masks,
        [repr(n) for n in names],
        [repr(e) for e in elements],
        exact_limit,
    )
    return [names[j] for j in chosen]


def set_bits(mask: int) -> List[int]:
    """Set-bit positions of ``mask``, ascending."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def cover_bits(
    universe: int,
    masks: Sequence[int],
    reprs: Sequence[str],
    element_reprs: Sequence[str],
    exact_limit: int = 24,
) -> List[int]:
    """Minimum-cardinality cover of a bitset universe (indices of ``masks``).

    Set ``j`` has members ``masks[j]`` and repr ``reprs[j]``; the element
    at bit ``b`` has repr ``element_reprs[b]``; the sets must cover
    ``universe``.  Same decisions as the set formulation: greedy bound
    (most new elements, ties to the larger repr), then branch on the
    uncovered element in fewest useful sets (ties: smaller repr), trying
    sets by most uncovered members, then repr.  Elements are re-bitted
    in that pivot order, so the pivot is always the lowest set bit.
    """
    if not universe:
        return []
    masks = [m & universe for m in masks]
    useful = sorted((j for j, m in enumerate(masks) if m), key=reprs.__getitem__)

    # Greedy solution: the fallback, and the branch-and-bound's bound.
    best: List[int] = []
    remaining = universe
    while remaining:
        pick, pick_gain = -1, 0
        for j in useful:
            gain = (masks[j] & remaining).bit_count()
            if gain > pick_gain or (
                gain and gain == pick_gain and reprs[j] > reprs[pick]
            ):
                pick, pick_gain = j, gain
        best.append(pick)
        remaining &= ~masks[pick]
    if len(useful) > exact_limit:
        return best

    count: Dict[int, int] = {}
    for j in useful:
        for b in set_bits(masks[j]):
            count[b] = count.get(b, 0) + 1
    pivot_order = sorted(set_bits(universe), key=lambda b: (count[b], element_reprs[b]))
    position = {b: 1 << i for i, b in enumerate(pivot_order)}
    members = {j: sum(position[b] for b in set_bits(masks[j])) for j in useful}
    containing = [
        [j for j in useful if members[j] >> i & 1] for i in range(len(pivot_order))
    ]
    max_gain = max(m.bit_count() for m in members.values())

    def search(remaining: int, chosen: List[int]) -> None:
        nonlocal best
        if not remaining:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        # Lower bound: even perfect sets need ceil(|remaining|/max_gain) more.
        lower = (remaining.bit_count() + max_gain - 1) // max_gain
        if len(chosen) + lower >= len(best):
            return
        pivot = (remaining & -remaining).bit_length() - 1
        candidates = sorted(
            containing[pivot],
            key=lambda j: (-(members[j] & remaining).bit_count(), reprs[j]),
        )
        for j in candidates:
            chosen.append(j)
            search(remaining & ~members[j], chosen)
            chosen.pop()

    search((1 << len(pivot_order)) - 1, [])
    return best
