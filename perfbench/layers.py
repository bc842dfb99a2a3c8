"""Per-layer metrics of a traced run.

Times are milliseconds per workload operation (a solve, a delta step or
a request), summed over every process that served it; counts are totals
over the traced phase, whose work is fixed by the seed.  A layer that
does not run on a workload reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Mapping, Sequence

from .config import PER_LAYER
from .tracing import Span, link, self_times

#: Span names of the solver passes whose self time is reported.
PASSES = ("bind", "schedule", "bounds", "check", "refine")
STRATEGIES = ("noop", "cache", "replay", "resumed", "diverged", "scratch", "error")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def in_window(spans: Sequence[Span], began: float, ended: float) -> List[Span]:
    """Spans that started and ended inside the measured window."""
    return [span for span in spans if span[3] >= began and span[4] <= ended]


def counter_delta(before: Mapping[str, Any], after: Mapping[str, Any], *path: str) -> float:
    """``after[path] - before[path]`` for nested published counters."""

    def get(payload: Any) -> float:
        for key in path:
            payload = (payload or {}).get(key)
        return float(payload or 0)

    return get(after) - get(before)


def span_metrics(
    spans: Sequence[Span], operations: int, roots: Sequence[str]
) -> Dict[str, float]:
    """Metrics computed from spans alone.

    ``roots`` names the spans the benchmark opens around each operation
    (``engine.engine`` for in-process solves, ``service.client`` for a
    served request); ``trace.coverage`` is the share of their time that
    deeper spans account for.
    """
    linked = link(spans)
    own = self_times(linked)
    by_id = {span[0]: span for span in linked}
    self_ms: Dict[str, float] = defaultdict(float)
    total_ms: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, float] = defaultdict(float)
    solver_ms = 0.0
    queue_wait_ms = 0.0
    for span in linked:
        sid, parent, name, start, end = span[:5]
        self_ms[name] += own[sid] * 1e3
        total_ms[name] += (end - start) * 1e3
        count[name] += 1
        for key, value in (span[6] or {}).items():
            attrs[f"{name}.{key}"] += value
        parent_span = by_id.get(parent)
        if name == "core.solver" and (
            parent_span is None or parent_span[2] != "core.solver"
        ):
            solver_ms += (end - start) * 1e3
        if (
            name in ("engine.engine", "engine.replay")
            and parent_span is not None
            and parent_span[2] == "service.async_engine"
        ):
            queue_wait_ms += (start - parent_span[3]) * 1e3

    per_op = max(1, operations)
    metrics: Dict[str, float] = {}
    for name in PASSES:
        metrics[f"core.{name}.self_ms"] = self_ms[f"core.{name}"] / per_op
    for name in ("bind", "schedule"):
        metrics[f"core.{name}.share"] = _ratio(self_ms[f"core.{name}"], solver_ms)
    metrics["core.bind.max_chain_calls"] = attrs["core.bind.max_chain_calls"]
    metrics["core.bind.chain_cache_hit_ratio"] = _ratio(
        attrs["core.bind.chain_hits"],
        attrs["core.bind.chain_hits"] + attrs["core.bind.chain_misses"],
    )
    iterations = count["core.bounds"]
    metrics["core.solver.iterations"] = iterations
    metrics["core.solver.ms_per_iteration"] = _ratio(solver_ms, iterations)
    metrics["core.delta.replay_solve_ms"] = total_ms["core.delta"] / per_op
    metrics["engine.cache.read_ms"] = self_ms["engine.cache.read"] / per_op
    metrics["engine.cache.write_ms"] = self_ms["engine.cache.write"] / per_op
    metrics["engine.cache.bytes_written"] = attrs["engine.cache.write.bytes"]
    metrics["io.json_io.encode_ms"] = self_ms["io.json_io.encode"] / per_op
    metrics["io.json_io.decode_ms"] = self_ms["io.json_io.decode"] / per_op
    metrics["core.problem.fingerprint_ms"] = (
        self_ms["core.problem.fingerprint"] / per_op
    )
    metrics["service.http.self_ms"] = self_ms["service.http"] / per_op
    metrics["service.async_engine.queue_wait_ms"] = queue_wait_ms / per_op
    metrics["service.client.rtt_ms"] = total_ms["service.client"] / per_op
    metrics["engine.executor.overhead_ms"] = (
        total_ms["engine.executor"]
        - attrs["engine.executor.child_seconds"] * 1e3
    ) / per_op
    metrics["service.fleet.self_ms"] = self_ms["service.fleet"] / per_op
    metrics["service.fleet.forward_ms"] = (
        self_ms["service.fleet.forward"] / per_op
    )
    metrics["analysis.validate.self_ms"] = self_ms["analysis.validate"] / per_op

    root_total = root_self = 0.0
    for span in linked:
        if span[2] in roots and by_id.get(span[1]) is None:
            root_total += span[4] - span[3]
            root_self += own[span[0]]
    metrics["trace.coverage"] = 1.0 - _ratio(root_self, root_total)
    return metrics


def delta_metrics(answers: Sequence[Any], base_iterations: Sequence[int]) -> Dict[str, float]:
    """Strategy counts and the verified share from ``delta`` fields.

    ``base_iterations[i]`` is the iteration count of the base solve the
    ``i``-th delta step started from.
    """
    metrics = {f"engine.replay.strategy.{name}": 0.0 for name in STRATEGIES}
    verified = base = 0
    for answer, iterations in zip(answers, base_iterations):
        meta = (answer.delta if answer is not None else None) or {}
        key = f"engine.replay.strategy.{meta.get('strategy', 'error')}"
        metrics[key] = metrics.get(key, 0.0) + 1
        strategy = meta.get("strategy")
        if strategy in ("replay", "resumed", "diverged"):
            verified += int(meta.get("verified_iterations", 0))
            base += iterations
    metrics["engine.replay.verified_share"] = _ratio(verified, base)
    return metrics


def stats_metrics(before: Mapping[str, Any], after: Mapping[str, Any]) -> Dict[str, float]:
    """Metrics from the counters the services publish on ``/v1/stats``.

    ``before``/``after`` hold ``{"front": ..., "workers": [...]}``.
    """
    workers = list(zip(before["workers"], after["workers"]))

    def summed(*path: str) -> float:
        return sum(counter_delta(b, a, *path) for b, a in workers)

    hits, misses = summed("cache", "hits"), summed("cache", "misses")
    metrics = {
        "engine.cache.hit_ratio": _ratio(hits, hits + misses),
        "engine.executor.started": summed("executor", "started"),
        "engine.executor.killed": summed("executor", "killed"),
        "service.async_engine.dedup_ratio": _ratio(
            summed("deduplicated"), summed("requests_total")
        ),
    }
    front_before, front_after = before["front"], after["front"]
    if front_after.get("role") == "coordinator":
        requests = counter_delta(front_before, front_after, "requests_total")
        metrics.update({
            "service.fleet.memo_hit_ratio": _ratio(
                counter_delta(front_before, front_after, "memo", "hits"),
                requests,
            ),
            "service.fleet.deduplicated": counter_delta(
                front_before, front_after, "deduplicated"
            ),
            "service.fleet.requeues": counter_delta(
                front_before, front_after, "requeues"
            ),
            "service.fleet.shed": counter_delta(
                front_before, front_after, "shed_total"
            ),
        })
    return metrics


def overhead_pct(plain_ms: Sequence[float], traced_ms: Sequence[float]) -> float:
    """Median latency of the traced phase against the plain phase, in %."""
    plain = statistics.median(plain_ms)
    return 100.0 * (statistics.median(traced_ms) - plain) / plain


def assemble(values: Mapping[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 where the layer did not run."""
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}
