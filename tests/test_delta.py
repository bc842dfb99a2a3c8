"""Warm-start delta solves: edit model, replay artifacts, strategies.

The parity contract -- every ``Engine.run_delta`` envelope is
canonical-byte identical to a cold solve of the edited problem -- is
asserted on every strategy the engine can take (``noop``, ``replay``,
``resumed``, ``diverged``, ``scratch``, ``cache``), on deterministic
``build_case`` problems chosen so each strategy is actually reached
(the randomized sweep lives in ``test_delta_fuzz.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.core.delta import (
    ConstraintEdit,
    DeadlineEdit,
    WordlengthEdit,
    apply_edits,
    edit_footprint,
    edits_footprint,
)
from repro.core.solver import REUSE_CHANNELS
from repro.engine import (
    AllocationRequest,
    DeltaRequest,
    Engine,
    execute_request,
)
from repro.engine.replay import REPLAY_KIND, REPLAY_SCHEMA, replay_key
from repro.experiments.common import build_case
from repro.io import (
    delta_request_from_dict,
    delta_request_to_dict,
    edit_from_dict,
    edit_to_dict,
    problem_to_dict,
)


def cold_canonical(problem, options=None):
    """Canonical bytes of an engine-free cold solve."""
    return execute_request(
        AllocationRequest(problem, "dpalloc", options=dict(options or {}))
    ).canonical_json()


def run_warm(engine, base, edits, options=None):
    """Prime-or-reuse delta step; returns (envelope, strategy)."""
    result = engine.run_delta(DeltaRequest(
        edits=tuple(edits), base_problem=base, options=dict(options or {})
    ))
    return result, (result.delta or {}).get("strategy")


# ----------------------------------------------------------------------
# the edit model
# ----------------------------------------------------------------------

class TestEditModel:
    def test_deadline_edit_applies(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        edited = apply_edits(problem, (DeadlineEdit(12),))
        assert edited.latency_constraint == 12
        assert edited.graph is problem.graph

    def test_wordlength_edit_rewrites_one_operation(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        edited = apply_edits(problem, (WordlengthEdit("a0", (8, 8)),))
        assert edited.graph.operation("a0").operand_widths == (8, 8)
        assert edited.graph.operation("m0").operand_widths == (8, 8)
        assert sorted(edited.graph.names) == sorted(problem.graph.names)
        assert list(edited.graph.edges()) == list(problem.graph.edges())

    def test_constraint_edit_sets_and_clears(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        limited = apply_edits(problem, (ConstraintEdit("mul", 2),))
        assert limited.resource_constraints == {"mul": 2}
        cleared = apply_edits(limited, (ConstraintEdit("mul", None),))
        # Empty constraints normalise to None so fingerprints don't fork.
        assert cleared.resource_constraints is None
        assert cleared.fingerprint() == problem.fingerprint()

    def test_edits_compose_in_order(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        edited = apply_edits(problem, (
            DeadlineEdit(20),
            DeadlineEdit(25),
            ConstraintEdit("add", 1),
        ))
        assert edited.latency_constraint == 25
        assert edited.resource_constraints == {"add": 1}

    def test_unknown_operation_raises_key_error(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        with pytest.raises(KeyError):
            apply_edits(problem, (WordlengthEdit("nope", (8, 8)),))

    def test_invalid_values_raise_value_error(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        with pytest.raises(ValueError):
            apply_edits(problem, (DeadlineEdit(0),))
        with pytest.raises(ValueError):
            apply_edits(problem, (WordlengthEdit("m0", (0, 8)),))
        with pytest.raises(ValueError):
            apply_edits(problem, (ConstraintEdit("mul", 0),))

    def test_non_edit_raises_type_error(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        with pytest.raises(TypeError):
            apply_edits(problem, ("latency=12",))  # type: ignore[arg-type]

    def test_deadline_footprint_is_replayable(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        footprint = edit_footprint(DeadlineEdit(12), problem)
        assert footprint.deadline
        assert footprint.replayable
        assert footprint.dirtied_channels() == frozenset()

    def test_content_footprints_dirty_all_wcg_channels(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        for edit in (WordlengthEdit("m0", (6, 6)), ConstraintEdit("mul", 1)):
            footprint = edit_footprint(edit, problem)
            assert not footprint.replayable
            assert footprint.dirtied_channels() == frozenset(
                REUSE_CHANNELS["wcg"]
            )

    def test_union_footprint_is_sticky(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        footprint = edits_footprint(
            (DeadlineEdit(12), WordlengthEdit("m0", (6, 6))), problem
        )
        assert footprint.deadline
        assert footprint.ops == frozenset({"m0"})
        assert not footprint.replayable


class TestEditSerialization:
    @pytest.mark.parametrize("edit", [
        DeadlineEdit(17),
        WordlengthEdit("m0", (8, 12)),
        ConstraintEdit("mul", 3),
        ConstraintEdit("add", None),
    ])
    def test_round_trip(self, edit):
        assert edit_from_dict(edit_to_dict(edit)) == edit

    def test_bad_payloads_raise(self):
        with pytest.raises(ValueError):
            edit_from_dict({"kind": "datapath"})
        with pytest.raises(ValueError):
            edit_from_dict({"kind": "problem-edit", "edit": "rename"})

    def test_delta_request_round_trip(self, chain_graph):
        from repro.core.problem import Problem

        problem = Problem(chain_graph, latency_constraint=30)
        request = DeltaRequest(
            edits=(DeadlineEdit(12), ConstraintEdit("mul", 2)),
            base_problem=problem,
            options={"trace": True},
            label="warm",
        )
        clone = delta_request_from_dict(delta_request_to_dict(request))
        assert clone.edits == request.edits
        assert clone.options == {"trace": True}
        assert clone.label == "warm"
        assert clone.base_problem.fingerprint() == problem.fingerprint()

    def test_fingerprint_only_request_round_trip(self):
        request = DeltaRequest(
            edits=(DeadlineEdit(9),), base_fingerprint="abc123"
        )
        clone = delta_request_from_dict(delta_request_to_dict(request))
        assert clone.base_problem is None
        assert clone.base_fingerprint == "abc123"
        assert clone.fingerprint() == "abc123"

    def test_bad_delta_request_payloads_raise(self):
        with pytest.raises(ValueError):
            delta_request_from_dict({"kind": "allocation-request"})
        with pytest.raises(ValueError):
            delta_request_from_dict(
                {"kind": "delta-request", "edits": "latency=9"}
            )

    def test_request_needs_a_base(self):
        with pytest.raises(ValueError):
            DeltaRequest(edits=(DeadlineEdit(9),))


# ----------------------------------------------------------------------
# run_delta strategies, each asserted against the parity contract
# ----------------------------------------------------------------------

class TestRunDeltaStrategies:
    def test_priming_empty_edit_sequence_is_noop(self):
        problem = build_case(16, 3, 0.0).problem
        engine = Engine()
        result, strategy = run_warm(engine, problem, ())
        assert strategy == "noop"
        assert (result.delta or {}).get("primed") is True
        assert result.canonical_json() == cold_canonical(problem)

    def test_same_deadline_edit_is_noop(self):
        problem = build_case(16, 3, 0.0).problem
        engine = Engine()
        run_warm(engine, problem, ())
        result, strategy = run_warm(
            engine, problem, (DeadlineEdit(problem.latency_constraint),)
        )
        assert strategy == "noop"
        assert (result.delta or {}).get("primed") is None

    def test_full_replay_reuses_base_envelope(self):
        # lambda=28 but the solve converges to makespan 25 in 12
        # iterations: tightening to 27 leaves every recorded move (and
        # the final accept) valid, so the base datapath is provably the
        # cold answer and no pipeline iteration re-runs.
        problem = build_case(12, 1, 0.3).problem
        engine = Engine()
        run_warm(engine, problem, ())
        result, strategy = run_warm(engine, problem, (DeadlineEdit(27),))
        assert strategy == "replay"
        meta = result.delta or {}
        assert meta["resumed_iterations"] == 0
        assert meta["verified_iterations"] == 12
        edited = problem.with_latency_constraint(27)
        assert result.canonical_json() == cold_canonical(edited)

    def test_relaxed_deadline_resumes_at_early_accept(self):
        problem = build_case(16, 3, 0.2).problem
        engine = Engine()
        run_warm(engine, problem, ())
        lam = problem.latency_constraint
        result, strategy = run_warm(engine, problem, (DeadlineEdit(lam + 1),))
        assert strategy == "resumed"
        edited = problem.with_latency_constraint(lam + 1)
        assert result.canonical_json() == cold_canonical(edited)

    def test_divergence_detected_and_resolved(self):
        # Relaxing lambda 37 -> 38 shifts the W candidate pool at
        # iteration 7: the walk catches the refine choice deviating and
        # re-solves from the 6-iteration verified prefix.
        problem = build_case(16, 3, 0.0).problem
        engine = Engine()
        run_warm(engine, problem, ())
        result, strategy = run_warm(engine, problem, (DeadlineEdit(38),))
        assert strategy == "diverged"
        meta = result.delta or {}
        assert meta["verified_iterations"] == 6
        assert meta["resumed_iterations"] > 0
        edited = problem.with_latency_constraint(38)
        assert result.canonical_json() == cold_canonical(edited)

    def test_infeasible_tightening_matches_cold_error(self):
        problem = build_case(16, 3, 0.0).problem
        engine = Engine()
        run_warm(engine, problem, ())
        result, _ = run_warm(engine, problem, (DeadlineEdit(5),))
        assert result.error is not None
        assert result.error.startswith("infeasible")
        edited = problem.with_latency_constraint(5)
        assert result.canonical_json() == cold_canonical(edited)

    def test_wordlength_edit_falls_back_to_scratch(self):
        problem = build_case(16, 3, 0.0).problem
        name = problem.graph.names[0]
        arity = len(problem.graph.operation(name).operand_widths)
        edits = (WordlengthEdit(name, (6,) * arity),)
        engine = Engine()
        run_warm(engine, problem, ())
        result, strategy = run_warm(engine, problem, edits)
        assert strategy == "scratch"
        assert result.canonical_json() == cold_canonical(
            apply_edits(problem, edits)
        )

    def test_constraint_edit_falls_back_to_scratch(self):
        problem = build_case(16, 3, 0.2).problem
        edits = (ConstraintEdit("mul", 1),)
        engine = Engine()
        run_warm(engine, problem, ())
        result, strategy = run_warm(engine, problem, edits)
        assert strategy == "scratch"
        assert result.canonical_json() == cold_canonical(
            apply_edits(problem, edits)
        )

    def test_mode_best_requests_never_replay(self):
        problem = build_case(16, 3, 0.2).problem
        options = {"mode": "best"}
        engine = Engine()
        run_warm(engine, problem, (), options)
        lam = problem.latency_constraint
        result, strategy = run_warm(
            engine, problem, (DeadlineEdit(lam + 1),), options
        )
        assert strategy == "scratch"
        edited = problem.with_latency_constraint(lam + 1)
        assert result.canonical_json() == cold_canonical(edited, options)

    def test_chained_edits_stay_warm(self):
        # The artifact a delta solve stores for its *edited* problem
        # serves as the base of the next step, fingerprint-only.
        problem = build_case(16, 3, 0.2).problem
        lam = problem.latency_constraint
        engine = Engine()
        run_warm(engine, problem, ())
        step1 = problem.with_latency_constraint(lam + 1)
        run_warm(engine, problem, (DeadlineEdit(lam + 1),))
        result = engine.run_delta(DeltaRequest(
            edits=(DeadlineEdit(lam + 2),),
            base_fingerprint=step1.fingerprint(),
        ))
        strategy = (result.delta or {}).get("strategy")
        assert strategy in ("replay", "resumed", "diverged")
        edited = problem.with_latency_constraint(lam + 2)
        assert result.canonical_json() == cold_canonical(edited)

    def test_repeat_delta_hits_result_cache(self, tmp_path):
        problem = build_case(16, 3, 0.2).problem
        lam = problem.latency_constraint
        engine = Engine(cache_dir=tmp_path / "cache")
        run_warm(engine, problem, ())
        first, s1 = run_warm(engine, problem, (DeadlineEdit(lam + 1),))
        second, s2 = run_warm(engine, problem, (DeadlineEdit(lam + 1),))
        assert s1 in ("replay", "resumed", "diverged")
        assert s2 == "cache"
        assert second.cached
        assert first.canonical_json() == second.canonical_json()

    def test_missing_artifact_fingerprint_only_is_an_error(self):
        engine = Engine()
        result = engine.run_delta(DeltaRequest(
            edits=(DeadlineEdit(9),), base_fingerprint="deadbeef"
        ))
        assert (result.delta or {}).get("strategy") == "error"
        assert result.error is not None
        assert "no replay artifact" in result.error
        assert result.datapath is None

    def test_bad_edit_is_an_error_envelope(self):
        problem = build_case(16, 3, 0.0).problem
        engine = Engine()
        result, strategy = run_warm(
            engine, problem, (WordlengthEdit("ghost", (8, 8)),)
        )
        assert strategy == "error"
        assert result.error is not None
        assert "KeyError" in result.error

    def test_delta_field_is_non_canonical_label_is_echoed(self):
        problem = build_case(16, 3, 0.2).problem
        lam = problem.latency_constraint
        engine = Engine()
        run_warm(engine, problem, ())
        result = engine.run_delta(DeltaRequest(
            edits=(DeadlineEdit(lam + 1),),
            base_problem=problem,
            label="tagged",
        ))
        assert result.label == "tagged"
        payload = json.loads(result.canonical_json())
        assert "delta" not in payload
        # Labels are canonical (a cold solve carries them too): parity
        # holds against a cold request with the same label.
        edited = problem.with_latency_constraint(lam + 1)
        cold = execute_request(
            AllocationRequest(edited, "dpalloc", label="tagged")
        )
        assert result.canonical_json() == cold.canonical_json()

    def test_replay_artifacts_survive_engine_restart(self, tmp_path):
        problem = build_case(16, 3, 0.2).problem
        lam = problem.latency_constraint
        Engine(cache_dir=tmp_path / "cache").run_delta(
            DeltaRequest(edits=(), base_problem=problem)
        )
        fresh = Engine(cache_dir=tmp_path / "cache")
        result = fresh.run_delta(DeltaRequest(
            edits=(DeadlineEdit(lam + 1),),
            base_fingerprint=problem.fingerprint(),
        ))
        meta = result.delta or {}
        assert meta.get("strategy") in ("replay", "resumed", "diverged")
        assert meta.get("primed") is None
        edited = problem.with_latency_constraint(lam + 1)
        assert result.canonical_json() == cold_canonical(edited)


# ----------------------------------------------------------------------
# artifact versioning: pre-delta-replay cache entries must degrade to
# misses, never crash (regression for the schema/kind gate)
# ----------------------------------------------------------------------

class TestArtifactVersioning:
    def _warm_engine(self, tmp_path):
        problem = build_case(16, 3, 0.2).problem
        engine = Engine(cache_dir=tmp_path / "cache")
        engine.run_delta(DeltaRequest(edits=(), base_problem=problem))
        key = replay_key(problem.fingerprint(), {})
        assert key is not None
        assert engine._cache is not None
        assert engine._cache.read(key) is not None
        return problem, engine, key

    def _assert_recovers(self, problem, engine):
        lam = problem.latency_constraint
        result = engine.run_delta(DeltaRequest(
            edits=(DeadlineEdit(lam + 1),), base_problem=problem
        ))
        meta = result.delta or {}
        # The poisoned artifact reads as a miss; base_problem re-primes.
        assert meta.get("primed") is True
        assert meta.get("strategy") in ("replay", "resumed", "diverged")
        edited = problem.with_latency_constraint(lam + 1)
        assert result.canonical_json() == cold_canonical(edited)

    def test_old_schema_entry_reads_as_miss(self, tmp_path):
        problem, engine, key = self._warm_engine(tmp_path)
        stale = json.loads(engine._cache.read(key))
        assert stale["kind"] == REPLAY_KIND
        assert stale["schema"] == REPLAY_SCHEMA
        # A hand-written entry from before the replay schema: right key,
        # right kind, older schema with fields today's loader lacks.
        old = {
            "kind": REPLAY_KIND,
            "schema": 0,
            "problem": problem_to_dict(problem),
            "moves": ["refine:a", "refine:b"],  # pre-schema-1 field
        }
        engine._cache.write(key, json.dumps(old))
        self._assert_recovers(problem, engine)
        # The unusable entry was invalidated, not left to re-parse.
        assert engine._cache.read(key) != json.dumps(old)

    def test_wrong_kind_entry_reads_as_miss(self, tmp_path):
        problem, engine, key = self._warm_engine(tmp_path)
        engine._cache.write(
            key,
            json.dumps({"kind": "allocation-result", "allocator": "dpalloc"}),
        )
        self._assert_recovers(problem, engine)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        problem, engine, key = self._warm_engine(tmp_path)
        engine._cache.write(key, "{not json")
        self._assert_recovers(problem, engine)

    def test_old_version_manifest_entry_is_tolerated(self, tmp_path):
        # Entries written by an older package version share the cache
        # directory; loading them must be a version-keyed miss, not a
        # crash, and must not disturb newer entries.
        problem, engine, key = self._warm_engine(tmp_path)
        engine._cache.write("0" * 64, json.dumps({"kind": REPLAY_KIND}))
        engine._cache.flush()
        fresh = Engine(cache_dir=tmp_path / "cache")
        assert fresh._cache.read("0" * 64) == json.dumps({"kind": REPLAY_KIND})
        # The good artifact next to it still serves: no re-prime needed.
        lam = problem.latency_constraint
        result = fresh.run_delta(DeltaRequest(
            edits=(DeadlineEdit(lam + 1),), base_problem=problem
        ))
        meta = result.delta or {}
        assert meta.get("primed") is None
        assert meta.get("strategy") in ("replay", "resumed", "diverged")
        edited = problem.with_latency_constraint(lam + 1)
        assert result.canonical_json() == cold_canonical(edited)
