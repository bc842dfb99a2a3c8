"""Combined resource binding and wordlength selection (paper section 2.3).

Given a schedule, binding partitions the operations into cliques of the
compatibility graph ``G'(O, C)``; each clique becomes one physical
resource instance whose wordlength must cover every member (Eqn. 4), and
the cost of a binding is the summed area of the cliques' resources
(Eqn. 5).  This is weighted unate covering (Eqn. 6), tackled with an
*implicit* adaptation of Chvátal's greedy heuristic [1]:

* columns (cliques) are never enumerated -- at each step only the
  maximum clique per resource type matters, because all cliques of a
  type cost the same and the greedy criterion is |clique| / cost;
* ``C`` is an interval order (derived from the schedule with latency
  upper bounds), so ``G'(O,C)`` restricted to ``O(r)`` is transitively
  oriented and a maximum clique is a maximum *chain*, found by dynamic
  programming in near-linear time (Golumbic [11]);
* after each selection the new clique is *grown* over previously selected
  cliques: if the union is still a chain and coverable by a single
  resource type, the earlier clique's unit is deleted -- the paper's
  compensation for greedy short-sightedness.

A final wordlength-selection pass implements each clique in the cheapest
resource type compatible (via current ``H`` edges) with all members;
``H`` membership guarantees the resource is never slower than the latency
upper bounds used by the scheduler, so the schedule remains valid.

The whole pass runs in one dense-id space (:class:`BindIndex`): ops are
ids in sorted-name order, resource types are ids in ``wcg.resources``
order, and the schedule arrives as flat per-id int lists, so the greedy
loop, grow/merge and :func:`max_chain` never hash a name or a
:class:`ResourceType`.  Every id order decodes to the name order the
tie-breaks were defined on, so the binding is byte-identical.

**Incremental Bindselect** (see ``docs/architecture.md``): the max-chain
kernel is a pure function of the candidate set and its members'
``(start, L_o)`` values, so the solver pipeline persists a
:class:`ChainCache` across iterations and replays unchanged chains
verbatim, invalidating only chains touching operations whose schedule
position or latency bound the last refinement actually moved.
``REPRO_SOLVER=scratch`` bypasses the cache; both paths are
byte-identical by construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple, TypeVar

from ..resources.area import AreaModel
from ..resources.types import ResourceType
from ..utils.covering import set_bits
from .wcg import WordlengthCompatibilityGraph

K = TypeVar("K", str, int)
_Key = TypeVar("_Key", contravariant=True)


class IntLookup(Protocol[_Key]):
    """A name-keyed mapping or a per-id list of ints."""

    def __getitem__(self, key: _Key, /) -> int: ...


__all__ = [
    "BindIndex",
    "BoundClique",
    "Binding",
    "ChainCache",
    "max_chain",
    "bindselect",
]


@dataclass(frozen=True)
class BoundClique:
    """One physical resource instance and the operations bound to it."""

    resource: ResourceType
    ops: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class Binding:
    """A complete binding: cliques plus convenience lookups."""

    cliques: Tuple[BoundClique, ...]

    def resource_of(self, name: str) -> ResourceType:
        for clique in self.cliques:
            if name in clique.ops:
                return clique.resource
        raise KeyError(f"operation {name!r} is not bound")

    def instance_of(self, name: str) -> int:
        for index, clique in enumerate(self.cliques):
            if name in clique.ops:
                return index
        raise KeyError(f"operation {name!r} is not bound")

    def area(self, area_model: AreaModel) -> float:
        """Total implementation area (paper Eqn. 5)."""
        return sum(area_model.area(c.resource) for c in self.cliques)

    def bound_latencies(
        self, wcg: WordlengthCompatibilityGraph
    ) -> Dict[str, int]:
        """Per-op latency of the resource each op is bound to (ℓ(o))."""
        latencies: Dict[str, int] = {}
        for clique in self.cliques:
            cycles = wcg.latency(clique.resource)
            for name in clique.ops:
                latencies[name] = cycles
        return latencies

    def bound_latencies_from(
        self, latency_of: Mapping[ResourceType, int]
    ) -> Dict[str, int]:
        """Like :meth:`bound_latencies` but from a plain latency mapping."""
        latencies: Dict[str, int] = {}
        for clique in self.cliques:
            cycles = latency_of[clique.resource]
            for name in clique.ops:
                latencies[name] = cycles
        return latencies

    def __len__(self) -> int:
        return len(self.cliques)


def max_chain(
    candidates: Sequence[K], schedule: IntLookup[K], latencies: IntLookup[K]
) -> List[K]:
    """Maximum chain (pairwise sequential ops) among ``candidates``.

    The inner kernel of Algorithm Bindselect (paper section 2.3): each
    greedy step needs, per resource type ``r``, a maximum clique of the
    compatibility graph ``G'(O, C)`` restricted to ``O(r)``.  The
    compatibility relation "finishes no later than the other starts" is
    an interval order, so ``G'`` is transitively oriented and a maximum
    clique is a maximum *chain* (Golumbic [11]), computed here by
    dynamic programming over ops sorted by ``(start, key)``.

    Keys are operation names with name-keyed mappings, or -- as
    :func:`bindselect` calls it -- dense op ids (sorted-name order) with
    flat per-id ``start``/``L_o`` lists; both orders agree, so both give
    the same chain.  Deterministic: ties prefer smaller predecessors,
    and the result, in ``(start, key)`` order, is a pure function of
    ``(candidates, schedule|candidates, latencies|candidates)`` -- the
    property :class:`ChainCache` relies on to replay chains verbatim
    across solver iterations.
    """
    if not candidates:
        return []
    # Stable sort on start over ascending keys == sort on (start, key).
    ordered = sorted(sorted(candidates), key=schedule.__getitem__)
    k = len(ordered)
    best_len = [1] * k
    best_pred = [-1] * k
    # Retire-pointer formulation of the chain DP, O(k log k): process
    # ops in (start, key) order; an earlier op becomes *retired* once
    # its finish time is <= the current start, and retired ops are
    # exactly the DP's eligible predecessors (starts are nondecreasing,
    # so retirement is monotone).  A running (max length, smallest
    # ordered index attaining it) over the retired set reproduces the
    # quadratic scan's first-strictly-greater predecessor choice.
    retire: List[Tuple[int, int]] = []  # (finish, ordered index) min-heap
    run_max = 0
    run_arg = -1
    for i, key in enumerate(ordered):
        start = schedule[key]
        while retire and retire[0][0] <= start:
            j = heapq.heappop(retire)[1]
            if best_len[j] > run_max or (best_len[j] == run_max and j < run_arg):
                run_max = best_len[j]
                run_arg = j
        if run_max:
            best_len[i] = run_max + 1
            best_pred[i] = run_arg
        heapq.heappush(retire, (start + latencies[key], i))
    tail = 0
    for i in range(1, k):
        if best_len[i] > best_len[tail] or (
            best_len[i] == best_len[tail] and ordered[i] > ordered[tail]
        ):
            tail = i
    chain: List[K] = []
    cursor = tail
    while cursor >= 0:
        chain.append(ordered[cursor])
        cursor = best_pred[cursor]
    chain.reverse()
    return chain


class BindIndex:
    """Dense-id interning of ops and resources for array-shaped Bindselect.

    Static per solve: op ids are the WCG's (sorted-name order), resource
    ids follow ``wcg.resources`` (the greedy iteration order), and each
    resource's area is captured both in *cheap order* -- ``cheap_rid``
    lists resource ids by ``(area, resource)``, so the lowest set bit of
    a cheap-order bitset IS the cheapest covering resource -- and as an
    exact integer ratio ``(num, den)`` for the greedy ``|clique|/cost``
    comparison (exact whatever floats the area model returns).

    Dynamic per ``H`` state (:meth:`sync`, keyed on the monotone
    ``wcg.edge_count()``): per-resource compatible-op bitsets over op
    ids, and per-op compatible-resource bitsets over cheap-order
    indices.  Cover probing -- the reference's per-op set rebuilds --
    becomes bitset AND + lowest-set-bit.
    """

    def __init__(
        self, wcg: WordlengthCompatibilityGraph, area_model: AreaModel
    ) -> None:
        self.op_names: Tuple[str, ...] = wcg.op_names
        self.resources: Tuple[ResourceType, ...] = wcg.resources
        areas = [area_model.area(r) for r in self.resources]
        self.cheap_rid: List[int] = sorted(
            range(len(self.resources)),
            key=lambda rid: (areas[rid], self.resources[rid]),
        )
        self.cost_ratio: List[Tuple[int, int]] = [
            area.as_integer_ratio() for area in areas
        ]
        self._rank_bit = [0] * len(self.resources)
        for rank, rid in enumerate(self.cheap_rid):
            self._rank_bit[rid] = 1 << rank
        # H-dependent bitsets, updated by sync() when the edge set moves;
        # _h is the per-op H (resource-id bitsets) they were built from.
        self.ops_mask: List[int] = []
        self.res_mask: List[int] = [0] * len(self.op_names)
        self._h: List[int] = [-1] * len(self.op_names)
        self._h_version: int = -1

    def sync(self, wcg: WordlengthCompatibilityGraph) -> None:
        """Rebuild the ``H``-dependent bitsets if the edge set changed.

        Refinement only ever *deletes* ``H`` edges, so along one solve's
        trajectory the monotone ``edge_count()`` identifies the edge set
        exactly -- an equal count means nothing moved.  Only the ops
        whose ``H`` neighbourhood changed get their cover bitset rebuilt.
        """
        version = wcg.edge_count()
        if version == self._h_version:
            return
        self._h_version = version
        self.ops_mask = wcg.ops_masks()
        rank_bit = self._rank_bit
        for oid, h in enumerate(wcg.h_masks()):
            if h != self._h[oid]:
                self._h[oid] = h
                self.res_mask[oid] = sum(rank_bit[rid] for rid in set_bits(h))

    def cover_mask(self, ops: Iterable[int]) -> int:
        """Cheap-order bitset of resources covering every op id (Eqn. 4)."""
        res_mask = self.res_mask
        mask = -1
        for oid in ops:
            mask &= res_mask[oid]
            if not mask:
                return 0
        return mask

    def cheapest(self, mask: int) -> int:
        """Id of the cheapest resource in a non-empty cheap-order bitset."""
        return self.cheap_rid[(mask & -mask).bit_length() - 1]


class ChainCache:
    """Memoised :func:`max_chain` results for incremental Bindselect.

    One store, keyed by resource id and then by the candidate op-id
    bitset; each entry is the chain as a tuple of op ids.  A chain is a
    pure function of the candidate set and the candidates' ``(start,
    L_o)`` values, so a cached chain may be replayed *verbatim* whenever
    those inputs recur: across the greedy rounds of one ``bindselect``
    call, and across outer DPAlloc iterations (a refinement changes one
    op's ``L_o``, and most ops keep their ``(start, L_o)`` in the rebuilt
    schedule).

    Consistency contract: ``bindselect`` calls :meth:`refresh` with the
    current per-id ``start``/``L_o`` lists, which evicts exactly the
    entries whose member ops moved; a changed candidate set needs no
    eviction because the bitset *is* the key.  Cached chains therefore
    equal a from-scratch ``max_chain`` -- the ``REPRO_SOLVER=scratch``
    parity guarantee extends to incremental Bindselect unchanged.
    """

    def __init__(self, max_entries_per_resource: int = 64) -> None:
        self._chains: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        self._index: Optional[BindIndex] = None
        self._start: Sequence[int] = ()
        self._latency: Sequence[int] = ()
        self._max_entries = max_entries_per_resource
        self.hits = 0
        self.misses = 0
        self.evicted = 0

    def ensure_index(
        self, wcg: WordlengthCompatibilityGraph, area_model: AreaModel
    ) -> BindIndex:
        """The solve-scoped :class:`BindIndex`, built once and synced.

        The op/resource universe and the area model are fixed for the
        lifetime of one solver state (refinement only deletes ``H``
        edges), so the interning tables are built on first use and only
        the ``H``-dependent bitsets are refreshed.
        """
        if self._index is None:
            self._index = BindIndex(wcg, area_model)
        self._index.sync(wcg)
        return self._index

    def refresh(self, start: Sequence[int], latency: Sequence[int]) -> int:
        """Evict entries whose ops' ``(start, L_o)`` changed; resnapshot.

        ``start`` and ``latency`` are per op id.  Returns the number of
        evicted entries (for diagnostics).
        """
        changed = 0
        for oid, (old_s, old_l, s, lat) in enumerate(
            zip(self._start, self._latency, start, latency)
        ):
            if old_s != s or old_l != lat:
                changed |= 1 << oid
        dropped = 0
        if changed:
            for chains in self._chains.values():
                stale = [key for key in chains if key & changed]
                for key in stale:
                    del chains[key]
                dropped += len(stale)
        self._start = list(start)
        self._latency = list(latency)
        self.evicted += dropped
        return dropped

    def chain(
        self,
        rid: int,
        cand_mask: int,
        start: Sequence[int],
        latency: Sequence[int],
    ) -> Tuple[int, ...]:
        """The max chain of op ids in ``cand_mask`` on resource ``rid``."""
        chains = self._chains.get(rid)
        if chains is None:
            chains = self._chains[rid] = {}
        cached = chains.get(cand_mask)
        if cached is not None:
            self.hits += 1
            # LRU: re-append so capacity eviction drops cold keys, not
            # the hot full-candidate-set chains that recur every round.
            chains[cand_mask] = chains.pop(cand_mask)
            return cached
        self.misses += 1
        result = tuple(max_chain(set_bits(cand_mask), start, latency))
        while len(chains) >= self._max_entries:
            del chains[next(iter(chains))]  # least recently used
            self.evicted += 1
        chains[cand_mask] = result
        return result


def _merge_if_chain(
    left: Sequence[int],
    right: Sequence[int],
    key: Sequence[int],
    start: Sequence[int],
    finish: Sequence[int],
) -> Optional[List[int]]:
    """Merge two chains of op ids sorted by ``key``; None if not a chain.

    ``key[o]`` orders ops by ``(start, id)``.  Equivalent to sorting the
    concatenation and checking each adjacent pair is time-compatible,
    but linear in the union size since both inputs are already sorted.
    """
    merged: List[int] = []
    i = j = 0
    n_left, n_right = len(left), len(right)
    prev_finish: Optional[int] = None
    while i < n_left or j < n_right:
        if j >= n_right or (i < n_left and key[left[i]] <= key[right[j]]):
            op = left[i]
            i += 1
        else:
            op = right[j]
            j += 1
        if prev_finish is not None and prev_finish > start[op]:
            return None
        merged.append(op)
        prev_finish = finish[op]
    return merged


def bindselect(
    wcg: WordlengthCompatibilityGraph,
    schedule: Mapping[str, int],
    latencies: Mapping[str, int],
    area_model: AreaModel,
    grow: bool = True,
    shrink: bool = True,
    chain_cache: Optional[ChainCache] = None,
) -> Binding:
    """Algorithm Bindselect of the paper (section 2.3).

    Implicit weighted unate covering (Eqn. 6) by Chvátal's greedy
    heuristic [1]: at each step pick the resource type whose maximum
    chain of still-uncovered operations maximises ``|clique| / cost``,
    grow the new clique over earlier selections (the paper's
    compensation for greedy short-sightedness), and finally implement
    each clique in the cheapest resource type compatible with all of
    its members (Eqn. 4).

    Args:
        wcg: scheduled wordlength compatibility graph (current ``H``).
        schedule: start step per operation.
        latencies: the latency upper bounds ``L_o`` used for scheduling
            (cliques built with these can never violate the schedule).
        area_model: resource cost for the greedy ratio and Eqn. 5.
        grow: enable the clique-growth compensation step.
        shrink: enable the final cheapest-cover wordlength selection.
        chain_cache: optional :class:`ChainCache` supplying memoised
            max chains (the solver pipeline's incremental Bindselect).
            Bindselect refreshes it against ``schedule`` and
            ``latencies``; results are byte-identical with or without
            it.

    Returns:
        a :class:`Binding` covering every operation exactly once.
    """
    if chain_cache is not None:
        index = chain_cache.ensure_index(wcg, area_model)
    else:
        index = BindIndex(wcg, area_model)
        index.sync(wcg)
    names = index.op_names
    n = len(names)
    # Flat per-op-id inputs, built once: start, L_o, finish, and the
    # (start, id) order as one int.
    start = [schedule[name] for name in names]
    latency = [latencies[name] for name in names]
    finish = [s + lat for s, lat in zip(start, latency)]
    key = [s * n + oid for oid, s in enumerate(start)]
    if chain_cache is not None:
        chain_cache.refresh(start, latency)
    ops_mask = index.ops_mask
    cost_ratio = index.cost_ratio
    uncovered = (1 << n) - 1
    # Selected cliques: (resource id, op ids in (start, id) order, the
    # cheap-order bitset of resources covering them) -- the grow step
    # probes (clique, prev) pairs with one AND.
    selected: List[Tuple[int, Tuple[int, ...], int]] = []

    while uncovered:
        # Exact greedy criterion: maximise |chain| / cost, tie-break on
        # smaller cost, first resource wins.  With cost == num/den the
        # ratio comparison cross-multiplies to integers, so ties can
        # never depend on float rounding (satisfying the parity
        # contract for any area magnitudes).
        best: Optional[Tuple[int, int, int, int, Sequence[int]]] = None
        for rid, mask in enumerate(ops_mask):
            cand_mask = mask & uncovered
            if not cand_mask:
                continue
            if chain_cache is not None:
                chain: Sequence[int] = chain_cache.chain(
                    rid, cand_mask, start, latency
                )
            else:
                chain = max_chain(set_bits(cand_mask), start, latency)
            num, den = cost_ratio[rid]
            if best is None:
                best = (len(chain), num, den, rid, chain)
                continue
            b_len, b_num, b_den = best[0], best[1], best[2]
            lhs = len(chain) * den * b_num  # ratio = len * den / num
            rhs = b_len * b_den * num
            if lhs > rhs or (lhs == rhs and num * b_den < b_num * den):
                best = (len(chain), num, den, rid, chain)
        if best is None:
            missing = [names[oid] for oid in set_bits(uncovered)]
            raise RuntimeError(f"operations without any compatible resource: {missing}")
        _, _, _, rid, clique = best
        clique_rmask = index.cover_mask(clique)
        for oid in clique:
            uncovered &= ~(1 << oid)

        if grow:
            survivors: List[Tuple[int, Tuple[int, ...], int]] = []
            for prev in selected:
                union_rmask = clique_rmask & prev[2]
                merged = (
                    _merge_if_chain(clique, prev[1], key, start, finish)
                    if union_rmask
                    else None
                )
                if merged is not None:
                    clique = merged
                    clique_rmask = union_rmask
                    rid = index.cheapest(union_rmask)
                else:
                    survivors.append(prev)
            selected = survivors
        # Chains and merges are already in (start, id) order.
        selected.append((rid, tuple(clique), clique_rmask))

    if shrink:
        selected = [
            (index.cheapest(rmask), ops, rmask) for _, ops, rmask in selected
        ]

    resources = index.resources
    cliques = tuple(
        BoundClique(resources[rid], tuple(names[oid] for oid in ops))
        for rid, ops, _ in sorted(
            selected, key=lambda item: (start[item[1][0]], item[1])
        )
    )
    return Binding(cliques)
