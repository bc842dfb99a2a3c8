"""The three workloads and how one run of each is measured.

=============  ===========  =============================================
workload       loop         what it drives
=============  ===========  =============================================
cold-sweep     closed, 1    ``Engine().run`` in-process, no cache
edit-session   closed, 1    ``Engine(cache_dir=...).run_delta`` chains
fleet-cold     open, 2 con  ``repro fleet`` over two ``repro serve``
=============  ===========  =============================================

A run's work is fixed before it starts: ``--seconds`` times the
workload's planned operation rate gives the operation count, and the
seed gives the operations.  The same seed therefore always drives the
same operations, which keeps counts (solver iterations, strategies
taken) exact and the tail percentile's sample size fixed.

A plain run (``--trace 0``) times every operation, then measures set-up
until it has ``SETUP_SAMPLES`` samples and reports their median.  A
traced run (``--trace 1``) plans half as many operations and runs them
twice, plain and then with spans installed, and reports the per-layer
breakdown of the traced pass plus the tracing overhead against the
plain one.  Answers of every phase are checked (:mod:`perfbench.checks`)
after the timing.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.problem import Problem
from repro.engine import AllocationRequest, AllocationResult, DeltaRequest, Engine
from repro.service import ServiceClient

from . import checks, inputs, layers, tracing
from .config import END_TO_END, PER_LAYER
from .loadgen import open_loop
from .measure import Result, Speed, geomean, tail, vm_hwm_mb
from .servers import Topology
from .speedprobe import REFERENCE_S as PROBE_REFERENCE_S, SpeedProbe

#: Workloads that call the engine in the benchmark's own process.
IN_PROCESS = ("cold-sweep", "edit-session")
#: Set-up is measured this many times per plain run; the median counts.
SETUP_SAMPLES = 9
#: Calibration loops run before each set-up sample of the in-process
#: workloads, and once more after the last (about 20 ms each time).
CALIBRATION_BURST = 20
#: Sender threads (one connection each) of the open-loop workloads.
CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))

PROBE_SCRIPT = Path(__file__).resolve().parent / "probe.py"


@dataclass(frozen=True)
class Spec:
    """The fixed parameters of one workload."""

    name: str
    #: Operations planned per second of ``--seconds``; for the open-loop
    #: workloads this is the offered arrival rate.
    rate: float
    #: Latency limit (ms) behind ``slo_met_share``.
    limit_ms: float
    #: Operation sizes (TGFF operations per problem).
    sizes: Tuple[int, ...]


SPECS: Dict[str, Spec] = {
    "cold-sweep": Spec("cold-sweep", rate=14.0, limit_ms=1000.0, sizes=(24, 32)),
    "edit-session": Spec("edit-session", rate=40.0, limit_ms=250.0, sizes=(24, 32)),
    "fleet-cold": Spec("fleet-cold", rate=9.0, limit_ms=500.0, sizes=(16, 20)),
}

#: fleet-cold: shares of arrivals that repeat an earlier problem and
#: that arrive as a near-simultaneous duplicate of the previous one.
FLEET_REPEAT, FLEET_DUPLICATE = 0.10, 0.10


@dataclass
class Op:
    """One timed operation."""

    problem: Problem
    answer: Optional[AllocationResult]
    latency: float
    error: Optional[BaseException] = None
    lag: float = 0.0

    @property
    def failed(self) -> bool:
        return self.answer is None or checks.failed(self.answer)


@dataclass
class Phase:
    """The timed operations of one phase and its context."""

    ops: List[Op]
    began: float
    ended: float
    #: The machine's speed through the phase: calibration loops between
    #: a closed loop's operations, the speed probe beside an open loop.
    speed: Optional[Speed] = None
    peak_rss_mb: float = 0.0
    stats_before: Dict[str, Any] = field(default_factory=dict)
    stats_after: Dict[str, Any] = field(default_factory=dict)
    #: edit-session: solver iterations of each primed base, by fingerprint.
    primed: Dict[str, int] = field(default_factory=dict)


def planned(spec: Spec, seconds: float, trace: bool) -> int:
    count = max(40, round(spec.rate * seconds))
    return max(20, count // 2) if trace else count


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

@dataclass
class Inputs:
    """Everything a workload sends, derived from the seed."""

    problems: List[Problem]
    #: open loop: due offsets (s) and the problem index of each arrival.
    offsets: List[float] = field(default_factory=list)
    chosen: List[int] = field(default_factory=list)
    steps: List[inputs.EditStep] = field(default_factory=list)


def make_inputs(spec: Spec, seed: int, count: int) -> Inputs:
    rng = inputs.seeded(seed, spec.name)
    if spec.name == "cold-sweep":
        return Inputs(inputs.stratified_problems(rng, spec.sizes, count))
    if spec.name == "edit-session":
        # A base pool fixed across seeds, one chain per step cycle: the
        # seed draws the edits (perfbench/README.md gives the reasons).
        chains = max(1, count // len(inputs.STEP_CYCLE))
        bases = inputs.stratified_problems(
            inputs.seeded(0, "edit-bases"), spec.sizes, chains
        )
        return Inputs(bases, steps=inputs.edit_session(rng, bases, count))
    # The pool is fixed across seeds too, as for edit-session: the seed
    # draws the arrival times, the repeats and the duplicates.
    pool = inputs.stratified_problems(
        inputs.seeded(0, "fleet-pool"), spec.sizes, count
    )
    offsets, chosen, problems = inputs.fleet_stream(
        rng, pool, spec.rate, count, FLEET_REPEAT, FLEET_DUPLICATE
    )
    return Inputs(problems, offsets=offsets, chosen=chosen)


def asked(spec: Spec, data: Inputs) -> List[Problem]:
    """The problem of every operation, in order."""
    if spec.name == "cold-sweep":
        return list(data.problems)
    if spec.name == "edit-session":
        return [step.edited for step in data.steps]
    return [data.problems[index] for index in data.chosen]


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def _timed(
    call: Callable[[], AllocationResult],
) -> Tuple[Optional[AllocationResult], float, Optional[BaseException]]:
    began = time.perf_counter()
    try:
        answer, error = call(), None
    except Exception as exc:  # noqa: BLE001 -- a failed operation
        answer, error = None, exc
    return answer, time.perf_counter() - began, error


def run_cold_sweep(spec: Spec, data: Inputs, work: Path) -> Phase:
    engine = Engine()
    engine.run(AllocationRequest(inputs.warmup_problem(), "dpalloc", label="warmup"))
    ops: List[Op] = []
    speed = Speed()
    began = time.perf_counter()
    for index, problem in enumerate(data.problems):
        speed.sample()
        request = AllocationRequest(problem, "dpalloc", label=f"c{index}")
        answer, latency, error = _timed(lambda: engine.run(request))
        ops.append(Op(problem, answer, latency, error))
    ended = time.perf_counter()
    return Phase(ops, began, ended, speed, peak_rss_mb=vm_hwm_mb(os.getpid()))


def run_edit_session(spec: Spec, data: Inputs, work: Path) -> Phase:
    engine = Engine(cache_dir=work / "edit-cache")
    engine.run_delta(DeltaRequest(base_problem=inputs.warmup_problem()))
    primed = {
        base.fingerprint(): engine.run_delta(
            DeltaRequest(base_problem=base, label="prime")
        ).iterations
        for base in data.problems
    }
    before = {"cache": engine.cache_stats(reconcile=False)}
    ops: List[Op] = []
    speed = Speed()
    began = time.perf_counter()
    for step in data.steps:
        speed.sample()
        request = DeltaRequest(
            edits=step.edits,
            base_fingerprint=step.base_fingerprint,
            label=step.label,
        )
        answer, latency, error = _timed(lambda: engine.run_delta(request))
        ops.append(Op(step.edited, answer, latency, error))
    ended = time.perf_counter()
    after = {"cache": engine.cache_stats(reconcile=False)}
    return Phase(
        ops, began, ended, speed, peak_rss_mb=vm_hwm_mb(os.getpid()),
        stats_before={"front": {}, "workers": [before]},
        stats_after={"front": {}, "workers": [after]},
        primed=primed,
    )


def run_fleet_cold(
    spec: Spec, data: Inputs, work: Path, trace_dir: Optional[Path]
) -> Tuple[Phase, float]:
    """One open-loop phase on a fresh fleet; also returns its set-up."""
    topology = Topology(work, trace_dir=trace_dir)
    setup = topology.start()
    try:
        client = ServiceClient(topology.url, timeout=60.0)
        _ = client.schema_version  # negotiate the wire dialect before timing

        def send(index: int) -> AllocationResult:
            problem = data.problems[data.chosen[index]]
            return client.run(
                AllocationRequest(problem, "dpalloc", label=f"r{index}")
            )

        before = topology.stats()
        with SpeedProbe() as probe:
            records = open_loop(data.offsets, send, CONNECTIONS)
        after = topology.stats()
        peak = topology.peak_rss_mb()
    finally:
        topology.stop()
    ops = [
        Op(data.problems[data.chosen[r.index]], r.answer, r.latency, r.error, r.lag)
        for r in records
    ]
    phase = Phase(
        ops,
        began=records[0].due,
        ended=max(r.finished for r in records),
        speed=Speed(probe.samples, reference_s=PROBE_REFERENCE_S),
        peak_rss_mb=peak,
        stats_before=before,
        stats_after=after,
    )
    return phase, setup


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def _probe_seconds(name: str, work: Path) -> float:
    """Launch-to-ready seconds of one fresh interpreter running
    ``perfbench/probe.py``."""
    began = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(PROBE_SCRIPT), name, str(work)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
    )
    try:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.close()
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe of {name} failed")
    return ready - began


def setup_seconds(
    spec: Spec, work: Path, count: int, speed: Optional[Speed]
) -> List[float]:
    """``count`` more set-ups, each from a fresh launch, with calibration
    samples into ``speed`` (if given) before each of them and after the
    last."""
    samples: List[float] = []
    for index in range(count):
        if speed is not None:
            speed.sample(CALIBRATION_BURST)
        probe_dir = work / f"setup-{index}"
        probe_dir.mkdir()
        if spec.name in IN_PROCESS:
            samples.append(_probe_seconds(spec.name, probe_dir))
        else:
            topology = Topology(probe_dir)
            samples.append(topology.start())
            topology.stop()
    if speed is not None:
        speed.sample(CALIBRATION_BURST)
    return samples


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def execute(spec: Spec, data: Inputs, work: Path, trace_dir: Optional[Path] = None) -> Tuple[Phase, Optional[float]]:
    work.mkdir(parents=True, exist_ok=True)
    if spec.name == "cold-sweep":
        return run_cold_sweep(spec, data, work), None
    if spec.name == "edit-session":
        return run_edit_session(spec, data, work), None
    return run_fleet_cold(spec, data, work, trace_dir)


def _factor(speed: Optional[Speed]) -> float:
    """A phase's slowdown against the reference speed (1 if uncalibrated)."""
    return speed.factor if speed is not None else 1.0


def end_to_end(
    result: Result,
    spec: Spec,
    phase: Phase,
    setups: List[float],
    setup_speed: Optional[Speed],
) -> None:
    """The end-to-end metrics, times at reference speed (see
    :class:`~perfbench.measure.Speed`).  A closed loop's rate scales with
    them; an open loop's follows the offered rate and is not scaled."""
    factor = _factor(phase.speed)
    closed = spec.name in IN_PROCESS
    latencies = [op.latency * 1e3 / factor for op in phase.ops]
    pct, tail_ms, beyond = tail(latencies)
    completed = sum(1 for op in phase.ops if not op.failed)
    met = sum(
        1 for op, latency in zip(phase.ops, latencies)
        if not op.failed and latency <= spec.limit_ms
    )
    areas = {
        op.problem.fingerprint(): op.answer.datapath.area
        for op in phase.ops
        if op.answer is not None and op.answer.datapath is not None
    }
    values = {
        "setup_s": statistics.median(setups) / _factor(setup_speed),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "throughput_per_s": (
            completed / (phase.ended - phase.began) * (factor if closed else 1.0)
        ),
        "slo_met_share": met / len(phase.ops),
        "area_geomean": geomean(areas.values()),
        "peak_rss_mb": phase.peak_rss_mb,
    }
    for name, unit in END_TO_END:
        result.put(name, values[name], unit)
    result.note(
        f"latency_tail_ms is p{pct:g} of {len(latencies)} samples "
        f"({beyond} beyond it); latency limit {spec.limit_ms:g} ms"
    )
    result.note(
        f"times at reference speed: the timed phase ran {factor:.3f}x "
        f"and set-up "
        + (f"{_factor(setup_speed):.3f}x" if setup_speed else "(uncalibrated)")
        + f" slower than the reference; as measured, p50 "
        f"{values['latency_p50_ms'] * factor:.3f} ms, tail "
        f"{tail_ms * factor:.3f} ms, throughput "
        f"{values['throughput_per_s'] / (factor if closed else 1.0):.3f}/s"
    )
    result.note(
        f"set-up samples as measured: "
        f"{', '.join(f'{s:.3f}' for s in setups)} s"
    )


def per_layer(
    result: Result,
    spec: Spec,
    plain: Phase,
    traced: Phase,
    spans: List[tracing.Span],
    data: Inputs,
) -> None:
    window = layers.in_window(spans, traced.began, traced.ended)
    in_process = spec.name in IN_PROCESS
    roots = ("engine.engine", "engine.replay") if in_process else ("service.client",)
    values = layers.span_metrics(window, len(traced.ops), roots)
    if spec.name == "edit-session":
        values.update(layers.delta_metrics(
            [op.answer for op in traced.ops], base_iterations(data, traced)
        ))
    if traced.stats_after:
        values.update(layers.stats_metrics(traced.stats_before, traced.stats_after))
    if not in_process:
        values["loadgen.lag_ms"] = statistics.mean(op.lag for op in traced.ops) * 1e3
    values["trace.overhead_pct"] = layers.overhead_pct(
        [op.latency / _factor(plain.speed) for op in plain.ops],
        [op.latency / _factor(traced.speed) for op in traced.ops],
    )
    complete = layers.assemble(values)
    for name, unit in PER_LAYER:
        scale = _factor(traced.speed) if unit == "ms" else 1.0
        result.put(name, complete[name] / scale, unit)
    calibrated = (
        f", speed factor {traced.speed.factor:.3f}" if traced.speed else ""
    )
    result.note(
        f"traced phase: {len(traced.ops)} operations over "
        f"{traced.ended - traced.began:.2f} s, {len(window)} spans{calibrated}"
    )


def base_iterations(data: Inputs, phase: Phase) -> List[int]:
    """Iterations of the base solve each edit step started from."""
    iterations = dict(phase.primed)
    found: List[int] = []
    for step, op in zip(data.steps, phase.ops):
        found.append(iterations.get(step.base_fingerprint, 0))
        if op.answer is not None:
            iterations[step.edited.fingerprint()] = op.answer.iterations
    return found


def check(result: Result, spec: Spec, data: Inputs, phases: Sequence[Phase]) -> None:
    problems = asked(spec, data)
    solver = "scratch" if spec.name == "cold-sweep" else None
    references = checks.reference_envelopes(problems, solver=solver)
    for phase in phases:
        result.attempted += len(phase.ops)
        for op in phase.ops:
            if op.failed:
                result.failed += 1
                if result.failed <= 3:
                    reason = op.error if op.answer is None else op.answer.error
                    result.note(f"failed operation: {reason!r}")
        checks.check_all(
            [(op.problem, op.answer) for op in phase.ops if op.answer is not None],
            references,
            result,
        )


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    spec = SPECS[name]
    result = Result(name)
    data = make_inputs(spec, seed, planned(spec, seconds, trace))
    if not trace:
        phase, setup = execute(spec, data, work / "run")
        # A served run's own start is one set-up sample; in-process
        # workloads measure every sample in a fresh interpreter.
        setups = [] if setup is None else [setup]
        setup_speed = Speed() if spec.name in IN_PROCESS else None
        setups += setup_seconds(
            spec, work, SETUP_SAMPLES - len(setups), setup_speed
        )
        end_to_end(result, spec, phase, setups, setup_speed)
        check(result, spec, data, [phase])
        return result
    plain, _ = execute(spec, data, work / "plain")
    trace_dir = work / "spans"
    trace_dir.mkdir()
    tracer = tracing.Tracer()
    tracing.install(tracer, dump_dir=trace_dir)
    try:
        traced, _ = execute(spec, data, work / "traced", trace_dir=trace_dir)
    finally:
        tracer.enabled = False
    spans = tracer.spans + tracing.load_spans(trace_dir)
    per_layer(result, spec, plain, traced, spans, data)
    check(result, spec, data, [plain, traced])
    return result
