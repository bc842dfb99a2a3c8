"""Tests of the benchmark's own arithmetic and checks.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.engine import AllocationRequest, Engine  # noqa: E402

from perfbench import checks, inputs, layers, measure, speedprobe, tracing  # noqa: E402
from perfbench.workloads import SPECS, asked, make_inputs  # noqa: E402


@pytest.mark.parametrize(
    "count, percentile, value",
    [
        (100, 90.0, 90.0),   # p90 leaves exactly ten beyond it
        (99, 75.0, 75.0),    # p90 would leave nine: fall back to p75
        (200, 95.0, 190.0),  # p95 leaves ten, p99 two
        (1000, 99.0, 990.0),
        (12, 50.0, 6.0),     # too small for any grid point: the median
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(
    count, percentile, value
):
    samples = [float(n) for n in range(count, 0, -1)]
    chosen, found, beyond = measure.tail(samples)
    assert (chosen, found) == (percentile, value)
    assert beyond >= 10 or count < 20


def _span(sid, parent, name, start, end, label=None, attrs=None):
    return (sid, parent, name, start, end, label, attrs)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span("1.1", None, "engine.engine", 0.0, 10.0),
        _span("1.2", "1.1", "core.bind", 1.0, 4.0),
        _span("1.3", "1.1", "core.schedule", 3.0, 6.0),  # overlaps 1.2
        _span("1.4", "1.1", "core.refine", 9.0, 12.0),   # overhangs 1.1
        _span("1.5", "1.2", "core.bind", 2.0, 3.0),
    ]
    own = tracing.self_times(spans)
    assert own["1.1"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own["1.2"] == pytest.approx(2.0)
    assert own["1.5"] == pytest.approx(1.0)
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_link_parents_a_root_span_of_another_process_by_label():
    spans = [
        _span("10.1", None, "service.client", 0.0, 10.0, "r1"),
        _span("20.1", None, "service.http", 1.0, 10.5),  # outlives the client
        _span("20.2", "20.1", "service.server", 2.0, 9.0, "r1"),
        _span("20.3", None, "service.http", 11.0, 12.0),  # a health probe
    ]
    linked = {span[0]: span for span in tracing.link(spans)}
    assert linked["20.1"][1] == "10.1"
    assert linked["20.1"][5] == "r1"
    assert linked["20.3"][1] is None
    own = tracing.self_times(list(linked.values()))
    assert own["10.1"] == pytest.approx(1.0)
    metrics = layers.span_metrics(list(linked.values()), 1, ("service.client",))
    assert metrics["trace.coverage"] == pytest.approx(0.9)
    assert metrics["service.http.self_ms"] == pytest.approx(3.5e3)


def test_check_flags_a_corrupted_envelope():
    problem = inputs.tgff_problem(12, 7, 0.05)
    answer = Engine().run(AllocationRequest(problem, "dpalloc", label="x"))
    reference = checks.canonical(answer)
    assert checks.check_answer(problem, answer, reference) is None

    # A valid datapath in a different envelope: only the bytes catch it.
    miscounted = replace(answer, iterations=answer.iterations + 1)
    assert "canonical bytes differ" in checks.check_answer(
        problem, miscounted, reference
    )
    # A datapath claiming less area than it uses: the validator catches it.
    cheaper = replace(answer, datapath=replace(answer.datapath, area=1.0))
    assert "fails validation" in checks.check_answer(problem, cheaper, reference)

    result = measure.Result("unit")
    result.attempted = 3
    checks.check_all(
        [(problem, answer), (problem, miscounted), (problem, cheaper)],
        {problem.fingerprint(): reference},
        result,
    )
    assert result.wrong == 2 and not result.correct


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_reference_solves_match_and_leave_no_process_behind():
    problems = [inputs.tgff_problem(12, seed, 0.05) for seed in (7, 8, 9)]
    references = checks.reference_envelopes(problems + problems[:1])
    assert set(references) == {p.fingerprint() for p in problems}
    for problem in problems:
        answer = Engine().run(AllocationRequest(problem, "dpalloc"))
        assert references[problem.fingerprint()] == checks.canonical(answer)
    assert not [
        pid for pid, parent, _ in measure.process_table() if parent == os.getpid()
    ]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_the_speed_probe_samples_until_stopped_and_is_reaped():
    with speedprobe.SpeedProbe() as probe:
        time.sleep(0.5)
    assert len(probe.samples) >= 2 and min(probe.samples) > 0
    assert not [
        pid for pid, parent, _ in measure.process_table() if parent == os.getpid()
    ]
    speed = measure.Speed(probe.samples, reference_s=speedprobe.REFERENCE_S)
    assert speed.factor > 0


@pytest.mark.parametrize("name", sorted(SPECS))
def test_inputs_depend_on_the_seed_alone(name):
    def fingerprints(seed):
        data = make_inputs(SPECS[name], seed, 24)
        return [p.fingerprint() for p in asked(SPECS[name], data)], data.offsets

    assert fingerprints(3) == fingerprints(3)
    assert fingerprints(3) != fingerprints(4)


def test_fleet_streams_draw_from_one_pool():
    spec = SPECS["fleet-cold"]
    first, second = (make_inputs(spec, seed, 48) for seed in (3, 4))
    assert first.problems[0].fingerprint() == second.problems[0].fingerprint()
    assert first.offsets != second.offsets


def test_edit_sessions_share_one_base_pool_and_one_step_mix():
    spec = SPECS["edit-session"]
    first, second = (make_inputs(spec, seed, 48) for seed in (3, 4))
    assert [p.fingerprint() for p in first.problems] == [
        p.fingerprint() for p in second.problems
    ]
    assert len(first.problems) == 48 // len(inputs.STEP_CYCLE)
    # Every chain opens with an edit and works through whole cycles, so
    # the count of revisits (steps back to a state already seen) is fixed.
    for data in (first, second):
        seen = {p.fingerprint() for p in data.problems}
        revisits = 0
        for step in data.steps:
            revisits += step.edited.fingerprint() in seen
            seen.add(step.edited.fingerprint())
        assert revisits == 48 * inputs.STEP_CYCLE.count("R") // len(
            inputs.STEP_CYCLE
        )


def test_relaxation_matches_the_experiments_harness():
    from repro.experiments.common import relaxed_constraint

    for relaxation in inputs.RELAXATIONS:
        problem = inputs.tgff_problem(24, 11, relaxation)
        assert problem.latency_constraint == relaxed_constraint(
            problem.minimum_latency(), relaxation
        )


def test_the_set_up_probe_loads_only_the_engine_and_the_inputs():
    # setup_s of the in-process workloads must not time the service
    # package or the experiments harness, which they never use.
    code = (
        "import sys, runpy; "
        "runpy.run_path(sys.argv[1], run_name='probe'); "
        "print(sorted({m.split('.')[1] for m in sys.modules "
        "if m.startswith('repro.')}))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench" / "probe.py")],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    assert "service" not in loaded and "experiments" not in loaded
    assert "engine" in loaded


def test_every_workload_has_a_spec_and_the_open_loop_names_its_own():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in config["workloads"]) == sorted(SPECS)
    # The open loop's offered rate and latency limit live in the code;
    # its "why" repeats them, because BENCHMARK.json has no other place.
    (fleet,) = [w for w in config["workloads"] if w["name"] == "fleet-cold"]
    spec = SPECS["fleet-cold"]
    assert f"{spec.rate:g} req/s" in fleet["why"]
    assert f"{spec.limit_ms:g} ms limit" in fleet["why"]
