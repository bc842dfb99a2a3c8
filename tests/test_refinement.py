"""Tests for the wordlength-refinement machinery (paper section 2.4)."""

import heapq

import pytest

from repro.core.binding import Binding, BoundClique
from repro.core.problem import InfeasibleError
from repro.core.refinement import (
    RefinementStep,
    bound_critical_path,
    candidate_set,
    choose_refinement_op,
    refine_once,
)
from repro.core.wcg import WordlengthCompatibilityGraph
from repro.ir.ops import Operation
from repro.resources.latency import SonicLatencyModel
from repro.resources.types import ResourceType

LAT = SonicLatencyModel()
SMALL = ResourceType("mul", (8, 8))    # 2 cycles
MID = ResourceType("mul", (12, 8))     # 3 cycles
BIG = ResourceType("mul", (16, 16))    # 4 cycles
ADD = ResourceType("add", (16,))       # 2 cycles


def reference_augmented_edges(graph_edges, schedule, binding, bound_latencies):
    """Sequencing edges plus the binding edges ``S_b`` of Eqn. 7."""
    edges = set(graph_edges)
    for clique in binding.cliques:
        for o1 in clique.ops:
            finish = schedule[o1] + bound_latencies[o1]
            for o2 in clique.ops:
                if o1 != o2 and finish == schedule[o2]:
                    edges.add((o1, o2))
    return edges


def reference_topological_order(names, preds, succs):
    """Deterministic (lexicographic-Kahn) topological order."""
    indegree = {n: len(preds[n]) for n in names}
    heap = [n for n in indegree if indegree[n] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        name = heapq.heappop(heap)
        order.append(name)
        for s in succs[name]:
            indegree[s] -= 1
            if indegree[s] == 0:
                heapq.heappush(heap, s)
    if len(order) != len(indegree):
        raise ValueError("augmented sequencing graph contains a cycle")
    return order


def reference_bound_critical_path(
    names, graph_edges, schedule, binding, bound_latencies
):
    """``Q_b`` by name-keyed Kahn order, independent of schedule starts.

    The reference :func:`bound_critical_path` must agree with: it
    assumes nothing about start times, so it also checks the kernel's
    start-ordering argument.
    """
    if not names:
        return set()
    edges = reference_augmented_edges(
        graph_edges, schedule, binding, bound_latencies
    )
    preds = {n: set() for n in names}
    succs = {n: set() for n in names}
    for u, v in sorted(edges):
        succs[u].add(v)
        preds[v].add(u)
    order = reference_topological_order(names, preds, succs)
    asap = {}
    for name in order:
        asap[name] = max(
            (asap[p] + bound_latencies[p] for p in preds[name]), default=0
        )
    deadline = max(asap[n] + bound_latencies[n] for n in names)
    alap = {}
    for name in reversed(order):
        finish = min((alap[s] for s in succs[name]), default=deadline)
        alap[name] = finish - bound_latencies[name]
    return {n for n in names if asap[n] == alap[n]}


class TestAugmentedEdges:
    """``S ∪ S_b`` as seen through ``Q_b``.

    ``a`` (2 cycles) and ``b`` (3 cycles): with an edge ``a -> b`` both
    are critical; without one only the longer ``b`` is.
    """

    LAT = {"a": 2, "b": 3}

    def q_b(self, graph_edges, schedule, binding):
        q_b = bound_critical_path(
            ("a", "b"), graph_edges, schedule, binding, self.LAT
        )
        assert q_b == reference_bound_critical_path(
            ("a", "b"), graph_edges, schedule, binding, self.LAT
        )
        return q_b

    def test_sequencing_edges_kept(self):
        binding = Binding(
            (BoundClique(SMALL, ("a",)), BoundClique(MID, ("b",)))
        )
        assert self.q_b(
            (("a", "b"),), {"a": 0, "b": 5}, binding
        ) == {"a", "b"}

    def test_back_to_back_same_unit_adds_edge(self):
        binding = Binding((BoundClique(MID, ("a", "b")),))
        assert self.q_b((), {"a": 0, "b": 2}, binding) == {"a", "b"}

    def test_gap_on_same_unit_adds_no_edge(self):
        binding = Binding((BoundClique(MID, ("a", "b")),))
        assert self.q_b((), {"a": 0, "b": 3}, binding) == {"b"}

    def test_different_units_add_no_edge(self):
        binding = Binding(
            (BoundClique(SMALL, ("a",)), BoundClique(MID, ("b",)))
        )
        assert self.q_b((), {"a": 0, "b": 2}, binding) == {"b"}


class TestBoundCriticalPath:
    def test_pure_chain_is_fully_critical(self):
        binding = Binding(
            (BoundClique(SMALL, ("a",)), BoundClique(SMALL, ("b",)))
        )
        q_b = bound_critical_path(
            ("a", "b"), (("a", "b"),), {"a": 0, "b": 2}, binding,
            {"a": 2, "b": 2},
        )
        assert q_b == {"a", "b"}

    def test_short_side_branch_not_critical(self):
        # a -> c and b -> c; a is slow (4), b fast (2): b has slack.
        binding = Binding(
            (
                BoundClique(BIG, ("a",)),
                BoundClique(SMALL, ("b",)),
                BoundClique(ADD, ("c",)),
            )
        )
        q_b = bound_critical_path(
            ("a", "b", "c"),
            (("a", "c"), ("b", "c")),
            {"a": 0, "b": 0, "c": 4},
            binding,
            {"a": 4, "b": 2, "c": 2},
        )
        assert q_b == {"a", "c"}

    def test_binding_chain_makes_ops_critical(self):
        # Two independent ops back-to-back on one unit form a bound
        # critical path even without data dependencies.
        binding = Binding((BoundClique(SMALL, ("a", "b")),))
        q_b = bound_critical_path(
            ("a", "b"), (), {"a": 0, "b": 2}, binding, {"a": 2, "b": 2}
        )
        assert q_b == {"a", "b"}

    def test_edge_not_start_ordered_raises(self):
        # A DAG, but the edge runs backwards in time: the kernel's
        # start-order ASAP pass would be wrong, so it refuses.
        binding = Binding(
            (BoundClique(SMALL, ("a",)), BoundClique(SMALL, ("b",)))
        )
        with pytest.raises(ValueError, match="not start-ordered"):
            bound_critical_path(
                ("a", "b"), (("b", "a"),), {"a": 0, "b": 2}, binding,
                {"a": 2, "b": 2},
            )

    def test_equal_starts_on_an_edge_raise(self):
        binding = Binding(
            (BoundClique(SMALL, ("a",)), BoundClique(SMALL, ("b",)))
        )
        with pytest.raises(ValueError, match="not start-ordered"):
            bound_critical_path(
                ("a", "b"), (("a", "b"),), {"a": 1, "b": 1}, binding,
                {"a": 2, "b": 2},
            )

    def test_empty_graph(self):
        assert bound_critical_path((), (), {}, Binding(()), {}) == set()


class TestCandidateSet:
    def test_w_filters_by_upper_bound_finish(self):
        q_b = {"a", "b"}
        schedule = {"a": 0, "b": 6}
        upper = {"a": 4, "b": 4}
        assert candidate_set(q_b, schedule, upper, latency_constraint=8) == {"a"}

    def test_w_empty_when_all_overshoot(self):
        q_b = {"a"}
        assert candidate_set(q_b, {"a": 8}, {"a": 4}, 8) == set()


class TestChooseRefinementOp:
    def make_wcg(self):
        ops = [Operation("a", "mul", (8, 8)), Operation("b", "mul", (12, 8))]
        return WordlengthCompatibilityGraph(ops, [SMALL, MID, BIG], LAT)

    def test_unrefinable_candidates_rejected(self):
        ops = [Operation("a", "add", (8, 8))]
        wcg = WordlengthCompatibilityGraph(ops, [ADD], LAT)
        assert choose_refinement_op(wcg, {"a"}, None) is None

    def test_min_edge_loss_preferred(self):
        wcg = self.make_wcg()
        # a: H = {SMALL, MID, BIG}, deleting BIG loses 1 of its 5
        # neighbourhood edges; b: H = {MID, BIG}, deleting BIG loses 1 of
        # 4 -- so 'a' (1/5 < 1/4) must be chosen.
        chosen = choose_refinement_op(wcg, {"a", "b"}, None)
        assert chosen == "a"

    def test_name_order_selector(self):
        wcg = self.make_wcg()
        assert choose_refinement_op(wcg, {"a", "b"}, None, "name-order") == "a"

    def test_unknown_selector(self):
        wcg = self.make_wcg()
        with pytest.raises(ValueError):
            choose_refinement_op(wcg, {"a"}, None, "random")

    def test_tie_break_prefers_faster_bound_op(self):
        ops = [Operation("a", "mul", (8, 8)), Operation("b", "mul", (8, 8))]
        wcg = WordlengthCompatibilityGraph(ops, [SMALL, BIG], LAT)
        # Both lose the same proportion; 'b' is bound to SMALL (faster
        # than its upper bound), so it is preferred despite name order.
        binding = Binding(
            (BoundClique(BIG, ("a",)), BoundClique(SMALL, ("b",)))
        )
        assert choose_refinement_op(wcg, {"a", "b"}, binding) == "b"


class TestRefineOnce:
    def test_mutates_wcg_and_reports(self):
        ops = [Operation("a", "mul", (8, 8)), Operation("b", "mul", (8, 8))]
        wcg = WordlengthCompatibilityGraph(ops, [SMALL, BIG], LAT)
        binding = Binding((BoundClique(BIG, ("a", "b")),))
        step = refine_once(
            wcg,
            ("a", "b"),
            (("a", "b"),),
            {"a": 0, "b": 4},
            binding,
            latency_constraint=6,
        )
        assert isinstance(step, RefinementStep)
        assert BIG in step.deleted
        assert wcg.upper_bound_latency(step.operation) == 2

    def test_raises_when_nothing_refinable(self):
        ops = [Operation("a", "add", (8, 8))]
        wcg = WordlengthCompatibilityGraph(ops, [ADD], LAT)
        binding = Binding((BoundClique(ADD, ("a",)),))
        with pytest.raises(InfeasibleError):
            refine_once(wcg, ("a",), (), {"a": 0}, binding, 1)

    def test_pool_restriction(self):
        # 'a' is bound-critical; 'b' is not (has slack).  Restricting the
        # pools to W/Qb must refine a critical op.
        ops = [
            Operation("a", "mul", (8, 8)),
            Operation("b", "mul", (8, 8)),
            Operation("c", "mul", (8, 8)),
        ]
        wcg = WordlengthCompatibilityGraph(ops, [SMALL, BIG], LAT)
        binding = Binding(
            (
                BoundClique(BIG, ("a", "c")),
                BoundClique(BIG, ("b",)),
            )
        )
        schedule = {"a": 0, "c": 4, "b": 0}
        step = refine_once(
            wcg, ("a", "b", "c"), (("a", "c"),), schedule, binding,
            latency_constraint=20, pools=("W", "Qb"),
        )
        assert step.operation in {"a", "c"}


class TestTopologicalOrder:
    def test_deterministic_lexicographic(self):
        names = ("c", "a", "b")
        preds = {"a": set(), "b": set(), "c": {"a", "b"}}
        succs = {"a": {"c"}, "b": {"c"}, "c": set()}
        assert reference_topological_order(names, preds, succs) == [
            "a", "b", "c",
        ]

    def test_cycle_detected(self):
        preds = {"a": {"b"}, "b": {"a"}}
        succs = {"a": {"b"}, "b": {"a"}}
        with pytest.raises(ValueError, match="cycle"):
            reference_topological_order(("a", "b"), preds, succs)
        binding = Binding(
            (BoundClique(SMALL, ("a",)), BoundClique(SMALL, ("b",)))
        )
        with pytest.raises(ValueError, match="not start-ordered"):
            bound_critical_path(
                ("a", "b"), (("a", "b"), ("b", "a")), {"a": 0, "b": 2},
                binding, {"a": 2, "b": 2},
            )

    def test_networkx_not_imported_by_refinement(self):
        """The per-iteration hot path must not require networkx."""
        import repro.core.refinement as refinement

        assert not hasattr(refinement, "nx")
        assert "networkx" not in refinement.__loader__.get_source(
            "repro.core.refinement"
        ).split('"""', 2)[2]  # allowed in the docstring, not in code


class TestKernelMatchesReference:
    """The kernel equals the name-keyed Kahn reference at every refine
    iteration of a seeded TGFF corpus."""

    OPTIONS = (
        {},
        {"mode": "asap"},
        {"blind_refinement": True},
        {"mode": "asap", "blind_refinement": True},
    )

    @staticmethod
    def _refine_iterations(problem, options):
        """Yield the solver state before each refine move."""
        from repro.core.solver import PIPELINE, _REFINE, SolverState

        state = SolverState(problem, options, incremental=True)
        while True:
            state.iteration += 1
            for stage in PIPELINE:
                stage.run(state)
            if state.feasible:
                return
            yield state
            try:
                _REFINE.run(state)
            except InfeasibleError:
                return

    @pytest.mark.parametrize(
        "overrides", OPTIONS, ids=["min-units", "asap", "blind", "asap-blind"]
    )
    def test_agrees_at_every_refine_iteration(self, overrides):
        from repro.core.solver import DPAllocOptions
        from repro.experiments import build_case

        options = DPAllocOptions(**overrides)
        iterations = equal_starts = 0
        for num_ops in (8, 12, 16, 24, 32):
            for sample in range(3):
                for relaxation in (0.0, 0.05):
                    problem = build_case(num_ops, sample, relaxation).problem
                    for state in self._refine_iterations(problem, options):
                        args = (
                            state.names, state.edges, state.schedule,
                            state.binding, state.bound_latencies,
                        )
                        assert bound_critical_path(*args) == (
                            reference_bound_critical_path(*args)
                        )
                        iterations += 1
                        starts = list(state.schedule.values())
                        equal_starts += len(set(starts)) < len(starts)
        assert iterations > 50
        assert equal_starts > 0


class TestRefineOncePrecomputedQb:
    def _fixture(self):
        ops = [
            Operation("a", "mul", (8, 8)),
            Operation("b", "mul", (8, 8)),
            Operation("c", "mul", (8, 8)),
        ]
        wcg = WordlengthCompatibilityGraph(ops, [SMALL, BIG], LAT)
        binding = Binding(
            (BoundClique(BIG, ("a", "c")), BoundClique(BIG, ("b",)))
        )
        schedule = {"a": 0, "c": 4, "b": 0}
        return wcg, binding, schedule

    def test_precomputed_qb_matches_internal(self):
        # refine_once draws its W pool from the one Q_b kernel: the op
        # it refines is the one chosen from a Q_b computed outside.
        wcg1, binding, schedule = self._fixture()
        step_internal = refine_once(
            wcg1, ("a", "b", "c"), (("a", "c"),), schedule, binding,
            latency_constraint=20,
        )
        wcg2, binding, schedule = self._fixture()
        q_b = bound_critical_path(
            ("a", "b", "c"), (("a", "c"),), schedule, binding,
            binding.bound_latencies(wcg2),
        )
        w = candidate_set(q_b, schedule, wcg2.upper_bound_latencies(), 20)
        assert step_internal.source == "W"
        assert step_internal.operation == choose_refinement_op(
            wcg2, w, binding
        )

    def test_unknown_pool_rejected(self):
        wcg, binding, schedule = self._fixture()
        with pytest.raises(ValueError, match="unknown candidate pool"):
            refine_once(
                wcg, ("a", "b", "c"), (("a", "c"),), schedule, binding,
                latency_constraint=20, pools=("mystery",),
            )
