"""Tests for the allocator registry, the engine, and its result cache."""

import dataclasses
import json
import multiprocessing
import time

import pytest

from repro import DPAllocOptions, InfeasibleError, Problem
from repro.engine import (
    AllocationRequest,
    AllocationResult,
    Engine,
    UnknownAllocatorError,
    allocator_names,
    execute_request,
    get_allocator,
    register_allocator,
    unregister_allocator,
)
from repro.experiments import build_case
from repro.gen.workloads import fir_filter, motivational_example
from repro.io import (
    allocation_result_from_dict,
    allocation_result_to_dict,
    load_json,
    save_json,
)

BUILTINS = ("clique-sort", "dpalloc", "fds", "ilp", "two-stage", "uniform")


def make_problem(relax=0.5, factory=fir_filter):
    graph = factory()
    scratch = Problem(graph, latency_constraint=1_000_000)
    lam = scratch.minimum_latency()
    return scratch.with_latency_constraint(max(1, int(lam * (1 + relax))))


def sweep_requests(allocator="dpalloc", count=20):
    """A deterministic 20-case TGFF sweep (the acceptance-criteria shape)."""
    requests = []
    sizes = (4, 6, 8, 10)
    per_size = count // len(sizes)
    for n in sizes:
        for sample in range(per_size):
            problem = build_case(n, sample, relaxation=0.2).problem
            requests.append(AllocationRequest(problem, allocator))
    return requests


class TestRegistry:
    def test_builtins_registered(self):
        names = allocator_names()
        for name in BUILTINS:
            assert name in names

    def test_lookup_returns_callable(self):
        fn = get_allocator("dpalloc")
        assert callable(fn)

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(UnknownAllocatorError) as excinfo:
            get_allocator("quantum")
        message = str(excinfo.value)
        assert "quantum" in message and "dpalloc" in message
        assert isinstance(excinfo.value, KeyError)  # back-compat contract

    def test_register_and_unregister(self):
        @register_allocator("test-null")
        def null_allocator(problem, **options):
            return get_allocator("uniform")(problem)

        try:
            assert "test-null" in allocator_names()
            result = Engine().run(
                AllocationRequest(make_problem(), "test-null")
            )
            assert result.allocator == "test-null" and result.ok
        finally:
            unregister_allocator("test-null")
        assert "test-null" not in allocator_names()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_allocator("dpalloc")(lambda problem, **options: None)

    def test_reregistering_same_callable_is_idempotent(self):
        fn = get_allocator("dpalloc")
        assert register_allocator("dpalloc")(fn) is fn

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_allocator("")

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownAllocatorError):
            unregister_allocator("never-registered")

    def test_unregistered_builtin_is_restored_on_lookup(self):
        # Regression: unregistering a built-in used to brick the
        # registry for the rest of the process (_builtins_loaded stayed
        # True, so the lazy loader never re-ran).
        unregister_allocator("dpalloc")
        assert "dpalloc" not in allocator_names()
        fn = get_allocator("dpalloc")
        assert callable(fn)
        assert "dpalloc" in allocator_names()
        result = Engine().run(AllocationRequest(make_problem(), "dpalloc"))
        assert result.ok

    def test_replacement_for_unregistered_builtin_wins_over_restore(self):
        original = get_allocator("uniform")
        unregister_allocator("uniform")
        try:

            @register_allocator("uniform")
            def replacement(problem, **options):
                return original(problem)

            assert get_allocator("uniform") is replacement
        finally:
            unregister_allocator("uniform")
            assert get_allocator("uniform") is original


    def test_check_options_per_allocator(self):
        from repro.engine.registry import check_options

        # dpalloc declares its DPAllocOptions fields; the baselines'
        # signatures are their options; undeclared **options take any.
        check_options("dpalloc", {"grow": False, "mode": "best"})
        check_options("ilp", {"time_limit": 1.0})
        for name, options in (("dpalloc", {"zzz": 1}),
                              ("ilp", {"grow": False}),
                              ("uniform", {"time_limit": 1.0})):
            with pytest.raises(ValueError, match="no option"):
                check_options(name, options)
        with pytest.raises(UnknownAllocatorError):
            check_options("quantum", {})

        @register_allocator("test-any-options")
        def any_options(problem, **options):
            return get_allocator("uniform")(problem)

        try:
            check_options("test-any-options", {"zzz": 1})
        finally:
            unregister_allocator("test-any-options")


class TestExecuteRequest:
    @pytest.mark.parametrize(
        "timeout", ["soon", [1], True, 0, -1.5, float("nan"), float("inf")]
    )
    def test_timeout_must_be_positive_finite_seconds(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            AllocationRequest(make_problem(), "dpalloc", timeout=timeout)

    def test_success_envelope(self):
        result = execute_request(AllocationRequest(make_problem(), "dpalloc"))
        assert result.ok
        assert result.allocator == "dpalloc"
        assert result.datapath is not None and result.datapath.area > 0
        assert result.valid is True
        assert result.error is None
        assert result.seconds > 0.0
        assert result.iterations >= 1

    def test_infeasible_becomes_error_field(self):
        # uniform cannot reach lambda_min on the motivational kernel
        problem = make_problem(relax=0.0, factory=motivational_example)
        result = execute_request(AllocationRequest(problem, "uniform"))
        assert not result.ok
        assert result.datapath is None
        assert result.error.startswith("infeasible")
        assert result.valid is None

    def test_extras_carry_solver_statistics(self):
        result = execute_request(AllocationRequest(
            make_problem(), "ilp", options={"time_limit": 60.0},
        ))
        assert result.ok
        assert result.extras["num_variables"] > 0

    def test_options_reach_the_strategy(self):
        options = dataclasses.asdict(DPAllocOptions(mode="asap"))
        result = execute_request(AllocationRequest(
            make_problem(), "dpalloc", options=options,
        ))
        assert result.ok
        assert result.extras["options"]["mode"] == "asap"

    def test_unexpected_exception_becomes_error_envelope(self):
        # e.g. a typo'd option: the envelope reports it, the batch lives
        result = execute_request(AllocationRequest(
            make_problem(), "ilp", options={"time_limt": 60.0},
        ))
        assert not result.ok
        assert result.error.startswith("error: TypeError")

    def test_error_envelopes_are_not_cached(self, tmp_path):
        engine = Engine(cache_dir=tmp_path / "cache")
        request = AllocationRequest(
            make_problem(), "ilp", options={"time_limt": 60.0},
        )
        first = engine.run(request)
        second = engine.run(request)
        assert first.error.startswith("error:") and not second.cached


class TestRunBatch:
    def test_parallel_identical_to_serial_byte_for_byte(self):
        requests = sweep_requests(count=20)
        engine = Engine()
        serial = engine.run_batch(requests)
        parallel = engine.run_batch(requests, workers=4)
        assert len(serial) == len(parallel) == 20
        assert [r.canonical_json() for r in serial] == \
               [r.canonical_json() for r in parallel]

    def test_result_order_matches_request_order(self):
        requests = [
            AllocationRequest(make_problem(), name, label=name)
            for name in ("uniform", "dpalloc", "clique-sort", "two-stage")
        ]
        results = Engine().run_batch(requests, workers=2)
        assert [r.allocator for r in results] == \
               [r.allocator for r in requests]
        assert [r.label for r in results] == [r.label for r in requests]

    def test_failures_do_not_poison_the_batch(self):
        feasible = make_problem(relax=1.0, factory=motivational_example)
        tight = make_problem(relax=0.0, factory=motivational_example)
        results = Engine().run_batch([
            AllocationRequest(feasible, "uniform"),
            AllocationRequest(tight, "uniform"),
            AllocationRequest(feasible, "dpalloc"),
        ])
        assert results[0].ok
        assert not results[1].ok and results[1].error.startswith("infeasible")
        assert results[2].ok

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            Engine().run_batch([], workers=0)
        with pytest.raises(ValueError):
            Engine(workers=0)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="interactively registered allocators reach pool workers "
               "only under the fork start method (see registry docstring)",
    )
    def test_single_fresh_request_still_preempted_when_pooled(self):
        @register_allocator("test-hang")
        def hang(problem, **options):
            time.sleep(30)
            return get_allocator("uniform")(problem)

        try:
            began = time.perf_counter()
            (result,) = Engine().run_batch(
                [AllocationRequest(make_problem(), "test-hang", timeout=0.3)],
                workers=2,
            )
            elapsed = time.perf_counter() - began
            assert result.error == "timeout: no result within 0.3s"
            assert elapsed < 15.0  # preempted, not blocked for 30s
        finally:
            unregister_allocator("test-hang")

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="interactively registered allocators reach pool workers "
               "only under the fork start method (see registry docstring)",
    )
    def test_slow_failing_run_envelopes_identically_serial_and_pooled(self):
        # Regression: the post-hoc timeout normalisation only fired when
        # error was None, so a run that blew its budget AND reported
        # infeasible kept "infeasible: ..." serially but yielded a
        # timeout envelope when pooled -- breaking the byte-identical
        # canonical_json() guarantee.
        @register_allocator("test-slow-infeasible")
        def slow_infeasible(problem, **options):
            time.sleep(0.4)
            raise InfeasibleError("slowly discovered")

        try:
            request = AllocationRequest(
                make_problem(), "test-slow-infeasible", timeout=0.05,
            )
            serial = execute_request(request)
            (pooled,) = Engine().run_batch([request], workers=2)
            assert serial.error == "timeout: no result within 0.05s"
            assert serial.canonical_json() == pooled.canonical_json()
        finally:
            unregister_allocator("test-slow-infeasible")

    def test_serial_timeout_reported_after_the_fact(self):
        @register_allocator("test-sleep")
        def sleepy(problem, **options):
            time.sleep(0.05)
            return get_allocator("uniform")(problem)

        try:
            result = Engine().run(AllocationRequest(
                make_problem(), "test-sleep", timeout=0.01,
            ))
            assert not result.ok
            # Normalised to exactly the pooled-path envelope, so
            # canonical JSON stays mode-independent even for timeouts.
            assert result.error == "timeout: no result within 0.01s"
            assert result.datapath is None and result.valid is None
            assert result.seconds > 0.0  # the measured duration survives
        finally:
            unregister_allocator("test-sleep")


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        engine = Engine(cache_dir=tmp_path / "cache")
        request = AllocationRequest(make_problem(), "dpalloc")
        first = engine.run(request)
        assert not first.cached
        second = engine.run(request)
        assert second.cached
        assert second.canonical_json() == first.canonical_json()
        assert list((tmp_path / "cache").glob("*.json"))

    def test_batch_uses_cache(self, tmp_path):
        engine = Engine(cache_dir=tmp_path / "cache")
        requests = sweep_requests(count=8)
        fresh = engine.run_batch(requests)
        cached = engine.run_batch(requests, workers=2)
        assert not any(r.cached for r in fresh)
        assert all(r.cached for r in cached)
        assert [r.canonical_json() for r in fresh] == \
               [r.canonical_json() for r in cached]

    def test_infeasible_outcomes_are_cached(self, tmp_path):
        engine = Engine(cache_dir=tmp_path / "cache")
        tight = make_problem(relax=0.0, factory=motivational_example)
        first = engine.run(AllocationRequest(tight, "uniform"))
        second = engine.run(AllocationRequest(tight, "uniform"))
        assert not first.ok and second.cached
        assert second.error == first.error

    def test_different_options_miss(self, tmp_path):
        engine = Engine(cache_dir=tmp_path / "cache")
        problem = make_problem()
        engine.run(AllocationRequest(problem, "dpalloc"))
        other = engine.run(AllocationRequest(
            problem, "dpalloc",
            options=dataclasses.asdict(DPAllocOptions(mode="asap")),
        ))
        assert not other.cached

    def test_corrupt_entry_falls_back_to_fresh_run(self, tmp_path):
        cache = tmp_path / "cache"
        engine = Engine(cache_dir=cache)
        request = AllocationRequest(make_problem(), "dpalloc")
        engine.run(request)
        (entry,) = (
            p for p in cache.glob("*.json") if p.name != "manifest.json"
        )
        for corrupt in ("{not json", "null", "[1, 2]"):
            entry.write_text(corrupt)
            result = engine.run(request)
            assert result.ok and not result.cached, corrupt

    def test_hit_echoes_current_request_label(self, tmp_path):
        engine = Engine(cache_dir=tmp_path / "cache")
        problem = make_problem()
        engine.run(AllocationRequest(problem, "dpalloc", label="first"))
        hit = engine.run(AllocationRequest(problem, "dpalloc", label="second"))
        assert hit.cached and hit.label == "second"

    def test_no_cache_dir_means_no_cache(self):
        engine = Engine()
        request = AllocationRequest(make_problem(), "dpalloc")
        assert engine.cache_key(request) is None
        assert not engine.run(request).cached

    def test_key_includes_package_version(self, tmp_path, monkeypatch):
        engine = Engine(cache_dir=tmp_path / "cache")
        request = AllocationRequest(make_problem(), "dpalloc")
        before = engine.cache_key(request)
        import repro

        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert engine.cache_key(request) != before


class TestProblemFingerprint:
    def test_equal_problems_equal_fingerprints(self):
        assert make_problem().fingerprint() == make_problem().fingerprint()

    def test_constraint_changes_fingerprint(self):
        problem = make_problem()
        relaxed = problem.with_latency_constraint(
            problem.latency_constraint + 1
        )
        assert problem.fingerprint() != relaxed.fingerprint()

    def test_resource_constraints_change_fingerprint(self):
        problem = make_problem()
        constrained = dataclasses.replace(
            problem, resource_constraints={"mul": 2}
        )
        assert problem.fingerprint() != constrained.fingerprint()

    def test_address_bearing_model_repr_is_unfingerprintable(self, tmp_path):
        from repro.resources.latency import TableLatencyModel

        problem = dataclasses.replace(
            make_problem(),
            latency_model=TableLatencyModel(
                {"add": lambda w: 2, "mul": lambda w: 3}
            ),
        )
        with pytest.raises(ValueError, match="content-stable"):
            problem.fingerprint()
        # ... which makes the request uncacheable, never wrongly cached
        engine = Engine(cache_dir=tmp_path / "cache")
        request = AllocationRequest(problem, "dpalloc")
        assert engine.cache_key(request) is None
        first = engine.run(request)
        second = engine.run(request)
        assert first.ok and second.ok and not second.cached


class TestAllocationResultRoundTrip:
    def roundtrip(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_json(allocation_result_to_dict(result), path)
        return allocation_result_from_dict(load_json(path))

    def test_success_roundtrip(self, tmp_path):
        result = execute_request(AllocationRequest(
            make_problem(), "dpalloc", label="case-1",
        ))
        clone = self.roundtrip(result, tmp_path)
        assert clone == result
        assert clone.canonical_json() == result.canonical_json()

    def test_failure_roundtrip(self, tmp_path):
        tight = make_problem(relax=0.0, factory=motivational_example)
        result = execute_request(AllocationRequest(tight, "uniform"))
        clone = self.roundtrip(result, tmp_path)
        assert clone == result
        assert clone.error == result.error and clone.datapath is None

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            allocation_result_from_dict({"kind": "datapath"})

    def test_canonical_json_excludes_wall_clock(self):
        result = execute_request(AllocationRequest(make_problem(), "dpalloc"))
        slower = dataclasses.replace(result, seconds=result.seconds + 10.0,
                                     cached=True)
        assert slower.canonical_json() == result.canonical_json()
        assert "seconds" not in json.loads(result.canonical_json())


class TestDPAllocOptionsDataclass:
    def test_frozen(self):
        options = DPAllocOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.grow = False

    def test_replace_derives_variants(self):
        base = DPAllocOptions(grow=False, max_iterations=7)
        variant = dataclasses.replace(base, mode="asap")
        assert variant.grow is False and variant.max_iterations == 7
        assert variant.mode == "asap"

    def test_asdict_roundtrip(self):
        options = DPAllocOptions(mode="best", selector="name-order")
        assert DPAllocOptions(**dataclasses.asdict(options)) == options

    def test_invalid_mode_still_rejected(self):
        with pytest.raises(ValueError):
            DPAllocOptions(mode="warp-speed")


class TestEnvelopeContract:
    def test_require_ok_reraises_infeasible(self):
        from repro.experiments.common import require_ok

        tight = make_problem(relax=0.0, factory=motivational_example)
        result = execute_request(AllocationRequest(tight, "uniform"))
        with pytest.raises(InfeasibleError):
            require_ok(result)

    def test_summary_row_shapes(self):
        ok = execute_request(AllocationRequest(make_problem(), "dpalloc"))
        assert set(ok.summary_row()) == {
            "allocator", "area", "makespan", "units", "seconds"
        }
        bad = AllocationResult(
            allocator="x", datapath=None, seconds=0.0, error="infeasible: no"
        )
        assert "error" in bad.summary_row()
