"""The wordlength compatibility graph ``G(V, E)`` (paper section 2.1).

``V = O ∪ R``: operations and resource-wordlength types.
``E = C ∪ H``:

* ``H`` -- undirected edges ``{o, r}`` meaning operation ``o`` can be
  executed by resource type ``r``.  Initially these are exactly the
  coverage edges (same resource kind, sufficient wordlength); Algorithm
  DPAlloc *refines* wordlength information by deleting the edges to an
  operation's slowest compatible resources, which lowers that operation's
  latency upper bound ``L_o``.
* ``C`` -- directed edges ``(o1, o2)`` meaning ``o1`` is scheduled to
  complete before ``o2`` starts.  ``C`` is derived from a schedule (see
  :meth:`compatibility_edges`) and forms a transitive orientation of the
  subgraph ``G'(O, C)`` -- the property that lets binding find maximum
  cliques in linear time (Golumbic [11]).

This class owns the mutable ``H`` edge set plus the latency quantities
derived from it, and computes the *scheduling set* ``S`` (minimum subset
of ``R`` covering all operations) required by the Eqn. 3 constraint.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from ..ir.ops import Operation
from ..resources.latency import LatencyModel
from ..resources.types import ResourceType
from ..utils.covering import cover_bits, set_bits

__all__ = ["WordlengthCompatibilityGraph"]


class WordlengthCompatibilityGraph:
    """Operations, resource types, and the mutable ``H`` edge set.

    Inside, the graph lives in one dense-id space: operations are ids in
    sorted-name order (:attr:`op_names`), resource types are ids in
    :attr:`resources` order (itself sorted), and ``H`` is stored twice as
    bitsets -- per op over resource ids and per resource over op ids --
    so no hot path hashes a :class:`ResourceType`.  Decoding a bitset in
    ascending bit order yields names and types in sorted order, so every
    public accessor returns exactly what a name-keyed store would.
    """

    def __init__(
        self,
        ops: Iterable[Operation],
        resources: Iterable[ResourceType],
        latency_model: LatencyModel,
        h_edges: Optional[Mapping[str, Iterable[ResourceType]]] = None,
    ) -> None:
        self._ops: Dict[str, Operation] = {op.name: op for op in ops}
        self._resources: Tuple[ResourceType, ...] = tuple(sorted(set(resources)))
        self._latency_model = latency_model
        self._names: Tuple[str, ...] = tuple(sorted(self._ops))
        self._op_id: Dict[str, int] = {n: i for i, n in enumerate(self._names)}
        self._res_id: Dict[ResourceType, int] = {
            r: i for i, r in enumerate(self._resources)
        }
        self._lat: List[int] = [latency_model.latency(r) for r in self._resources]

        if h_edges is not None:
            unknown = sorted(set(h_edges) - set(self._ops))
            if unknown:
                raise ValueError(f"h_edges name unknown operations {unknown}")
        # H per op id, as a bitset over resource ids.
        h_of: Dict[str, int] = {}
        for name, op in self._ops.items():
            mask = 0
            if h_edges is None:
                for rid, r in enumerate(self._resources):
                    if r.covers(op):
                        mask |= 1 << rid
            else:
                for r in h_edges.get(name, ()):
                    rid = self._res_id.get(r)
                    if rid is None:
                        raise ValueError(
                            f"edge {{{name}, {r}}} names a resource type "
                            f"that is not in the resource set"
                        )
                    if not r.covers(op):
                        raise ValueError(f"edge {{{name}, {r}}} is not a coverage edge")
                    mask |= 1 << rid
            if not mask:
                raise ValueError(f"operation {name!r} has no compatible resource type")
            h_of[name] = mask
        self._h: List[int] = [h_of[name] for name in self._names]
        # Reverse H (per resource id, a bitset over op ids), maintained
        # under refinement so O(r) lookups never rescan the edge set.
        self._ops_of: List[int] = [0] * len(self._resources)
        for oid, mask in enumerate(self._h):
            for rid in set_bits(mask):
                self._ops_of[rid] |= 1 << oid
        self._edges = sum(mask.bit_count() for mask in self._h)
        # Decoded O(r) tuples; refine() drops the entries it changes.
        self._ops_memo: List[Optional[Tuple[str, ...]]] = [None] * len(self._resources)
        # Ops of each kind as a bitset (the scheduling-set universes) and
        # each op name's repr (the cover's tie-break order).
        self._kind_ops: Dict[str, int] = {}
        for oid, name in enumerate(self._names):
            kind = self._ops[name].resource_kind
            self._kind_ops[kind] = self._kind_ops.get(kind, 0) | 1 << oid
        self._name_reprs: List[str] = [repr(n) for n in self._names]
        self._res_reprs: List[str] = [repr(r) for r in self._resources]

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def operations(self) -> Tuple[Operation, ...]:
        return tuple(self._ops.values())

    @property
    def resources(self) -> Tuple[ResourceType, ...]:
        return self._resources

    @property
    def op_names(self) -> Tuple[str, ...]:
        """Operation names in id order (sorted)."""
        return self._names

    def operation(self, name: str) -> Operation:
        return self._ops[name]

    def latency(self, resource: ResourceType) -> int:
        """Cycles needed by one execution on ``resource``."""
        return self._lat[self._res_id[resource]]

    def compatible_resources(self, name: str) -> Tuple[ResourceType, ...]:
        """Current ``H`` neighbours of operation ``name``, sorted."""
        resources = self._resources
        return tuple(resources[rid] for rid in set_bits(self._h[self._op_id[name]]))

    # passaudit: const(lazy decode memo; refine() drops affected entries)
    def ops_for_resource(self, resource: ResourceType) -> Tuple[str, ...]:
        """``O(r)``: operations with a current ``H`` edge to ``resource``."""
        rid = self._res_id.get(resource)
        if rid is None:
            return ()
        cached = self._ops_memo[rid]
        if cached is None:
            names = self._names
            cached = tuple(names[oid] for oid in set_bits(self._ops_of[rid]))
            self._ops_memo[rid] = cached
        return cached

    def ops_masks(self) -> List[int]:
        """``O(r)`` per resource id, as bitsets over op ids."""
        return list(self._ops_of)

    def h_masks(self) -> List[int]:
        """``H`` neighbours per op id, as bitsets over resource ids."""
        return list(self._h)

    def has_edge(self, name: str, resource: ResourceType) -> bool:
        rid = self._res_id.get(resource)
        return rid is not None and bool(self._h[self._op_id[name]] >> rid & 1)

    def edge_count(self) -> int:
        """Total number of ``H`` edges (monotone under refinement)."""
        return self._edges

    # ------------------------------------------------------------------
    # latency bounds (Table 1: L_o and the per-resource latencies)
    # ------------------------------------------------------------------
    def upper_bound_latency(self, name: str) -> int:
        """``L_o``: slowest compatible resource of operation ``name``."""
        lat = self._lat
        return max(lat[rid] for rid in set_bits(self._h[self._op_id[name]]))

    def min_latency(self, name: str) -> int:
        """Fastest compatible resource of operation ``name``."""
        lat = self._lat
        return min(lat[rid] for rid in set_bits(self._h[self._op_id[name]]))

    def upper_bound_latencies(self) -> Dict[str, int]:
        """``L_o`` for every operation."""
        return {name: self.upper_bound_latency(name) for name in self._ops}

    def can_refine(self, name: str) -> bool:
        """Whether deleting the slowest edges would leave the op coverable."""
        lat = self._lat
        latencies = {lat[rid] for rid in set_bits(self._h[self._op_id[name]])}
        return len(latencies) > 1

    def refine(self, name: str) -> List[ResourceType]:
        """Delete all edges ``{name, r}`` with ``latency(r) == L_name``.

        Paper section 2.4, final step.  Returns the deleted resource
        types, sorted.  Raises ``ValueError`` if the operation cannot be
        refined (all its compatible resources share one latency).
        """
        if not self.can_refine(name):
            raise ValueError(f"operation {name!r} cannot be refined further")
        bound = self.upper_bound_latency(name)
        oid = self._op_id[name]
        victims = [rid for rid in set_bits(self._h[oid]) if self._lat[rid] == bound]
        for rid in victims:
            self._h[oid] &= ~(1 << rid)
            self._ops_of[rid] &= ~(1 << oid)
            self._ops_memo[rid] = None
        self._edges -= len(victims)
        return [self._resources[rid] for rid in victims]

    # ------------------------------------------------------------------
    # scheduling set (section 2.2)
    # ------------------------------------------------------------------
    def kinds(self) -> Tuple[str, ...]:
        """Resource kinds present in the operation set, sorted."""
        return tuple(sorted(self._kind_ops))

    def kind_cover(self, kind: str) -> Tuple[ResourceType, ...]:
        """Minimum-cardinality cover of the operations of one kind.

        Coverage edges never cross kinds (``ResourceType.covers``
        requires kind equality, and the constructor validates every
        ``H`` edge is a coverage edge), so the scheduling-set problem
        decomposes exactly into independent per-kind covers.  This is
        the unit of incremental recomputation: refining an operation
        invalidates only its own kind's cover.
        """
        universe = self._kind_ops.get(kind, 0)
        rids = [rid for rid, r in enumerate(self._resources) if r.kind == kind]
        cover = cover_bits(
            universe,
            [self._ops_of[rid] for rid in rids],
            [self._res_reprs[rid] for rid in rids],
            self._name_reprs,
        )
        return tuple(self._resources[rids[j]] for j in sorted(cover))

    def scheduling_set(self) -> Tuple[ResourceType, ...]:
        """Minimum-cardinality ``S ⊆ R`` with an ``H`` edge to every op.

        Computed per resource kind (:meth:`kind_cover`) and merged; the
        decomposition is exact because ``H`` edges never cross kinds.
        """
        members: List[ResourceType] = []
        for kind in self.kinds():
            members.extend(self.kind_cover(kind))
        return tuple(sorted(members))

    def members_covering(
        self, name: str, scheduling_set: Iterable[ResourceType]
    ) -> Tuple[ResourceType, ...]:
        """``S(o)``: scheduling-set members with an ``H`` edge to ``name``."""
        return tuple(sorted(s for s in scheduling_set if self.has_edge(name, s)))

    # ------------------------------------------------------------------
    # compatibility edges C (derived from a schedule)
    # ------------------------------------------------------------------
    def compatibility_edges(
        self, schedule: Mapping[str, int], latencies: Mapping[str, int]
    ) -> Set[Tuple[str, str]]:
        """``C``: pairs ``(o1, o2)`` with ``o1`` finishing before ``o2`` starts.

        Using the latency upper bounds here guarantees any binding derived
        from these cliques never violates the schedule (section 2.3).
        The relation is an interval order, hence transitively closed.
        """
        names = sorted(self._ops)
        edges: Set[Tuple[str, str]] = set()
        for o1 in names:
            finish = schedule[o1] + latencies[o1]
            for o2 in names:
                if o1 != o2 and finish <= schedule[o2]:
                    edges.add((o1, o2))
        return edges

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def h_snapshot(self) -> Dict[str, FrozenSet[ResourceType]]:
        """Immutable snapshot of the current ``H`` edges (for traces)."""
        return {
            name: frozenset(self.compatible_resources(name)) for name in self._ops
        }

    def copy(self) -> "WordlengthCompatibilityGraph":
        return WordlengthCompatibilityGraph(
            self.operations,
            self._resources,
            self._latency_model,
            h_edges={name: self.compatible_resources(name) for name in self._ops},
        )

    def __repr__(self) -> str:
        return (
            f"WordlengthCompatibilityGraph(|O|={len(self._ops)}, "
            f"|R|={len(self._resources)}, |H|={self.edge_count()})"
        )
