"""Spans recorded from outside the program, and the per-layer arithmetic.

:func:`install` wraps the public entry points of each layer (solver
passes, Bindselect, the engine, the result cache, the JSON codecs, the
validator, the async front-end, the HTTP route handlers, the fleet's
forward hop and the client) so every call records one span: name,
start, end, parent and the request label it served.  Spans stay in
memory; a process writes them out once, when it ends
(:meth:`Tracer.dump`).  Nothing here changes what the program computes.

The clock is ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux, one
clock for every process on the host), so spans recorded by the
benchmark, a server, a coordinator and a forked solve process can be
laid on one time axis.  Parents are found three ways:

* inside one thread or asyncio task, by a context variable;
* across ``run_in_executor`` thread hops, because the traced process
  copies the caller's context into the executor thread;
* across processes, by the request label: a root span in one process is
  the child of the innermost span in another process that carried the
  same label and was open when it started.  Forked solve processes inherit
  their parent span directly.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

# Span record: (id, parent id, layer name, start s, end s, request label,
# attributes).  Ids are "<pid>.<n>" so they stay unique across processes.
Span = Tuple[str, Optional[str], str, float, float, Optional[str], Optional[dict]]


class Tracer:
    """In-memory span buffer of one process (reset in forked children)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self.forked = False
        self.max_chain_calls = 0
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.forked = True
        self._pid = os.getpid()

    def new_id(self) -> str:
        return f"{self._pid}.{next(self._ids)}"

    def dump(self, directory: Path) -> None:
        """Write this process's spans to a file of its own in ``directory``
        (named by pid and clock, so a reused pid cannot overwrite it)."""
        path = Path(directory) / f"spans-{os.getpid()}-{time.monotonic_ns()}.json"
        path.write_text(json.dumps(self.spans))


def _span_wrapper(
    tracer: Tracer,
    fn: Callable,
    name: str,
    rid: Optional[Callable[[tuple, Any], Optional[str]]] = None,
    attrs: Optional[Callable[[tuple, Any, Any], Optional[dict]]] = None,
    before: Optional[Callable[[tuple], Any]] = None,
) -> Callable:
    """``fn`` recording one span per call (coroutines included).

    ``rid(args, result)`` names the request the call served;
    ``attrs(args, result, snapshot)`` adds numbers to the span, where
    ``snapshot`` is what ``before(args)`` returned when the call began.
    """

    def finish(sid, parent, start, args, result, snapshot) -> None:
        end = time.perf_counter()
        label = extra = None
        try:
            label = rid(args, result) if rid is not None else None
            if attrs is not None:
                extra = attrs(args, result, snapshot)
        except Exception:  # noqa: BLE001 -- a span never breaks the call
            pass
        tracer.spans.append((sid, parent, name, start, end, label, extra))

    if inspect.iscoroutinefunction(fn):

        async def async_wrapper(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            parent, sid = _CURRENT.get(), tracer.new_id()
            token = _CURRENT.set(sid)
            snapshot = before(args) if before is not None else None
            start, result = time.perf_counter(), None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                _CURRENT.reset(token)
                finish(sid, parent, start, args, result, snapshot)

        wrapper = async_wrapper
    else:

        def sync_wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent, sid = _CURRENT.get(), tracer.new_id()
            token = _CURRENT.set(sid)
            snapshot = before(args) if before is not None else None
            start, result = time.perf_counter(), None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                _CURRENT.reset(token)
                finish(sid, parent, start, args, result, snapshot)

        wrapper = sync_wrapper
    return functools.wraps(fn)(wrapper)


def _label(obj: Any) -> Optional[str]:
    """The request label carried by a request, payload or response."""
    if isinstance(obj, tuple) and len(obj) == 2 and isinstance(obj[1], dict):
        obj = obj[1]  # a route handler's (status, payload)
    if isinstance(obj, dict):
        value = obj.get("label")
    else:
        value = getattr(obj, "label", None)
    return value if isinstance(value, str) else None


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, dump_dir: Optional[Path] = None) -> None:
    """Wrap every traced entry point of the loaded program.

    ``dump_dir`` is where forked solve processes write their spans
    before they report back (they exit without running ``atexit``).
    """
    import asyncio.base_events

    import repro.analysis.validate as validate
    import repro.core.binding as binding
    import repro.core.delta as delta
    import repro.core.problem as problem
    import repro.core.solver as solver
    import repro.engine.cache as cache
    import repro.engine.engine as engine
    import repro.engine.executor as executor
    import repro.engine.replay  # noqa: F401 -- binds names _rebind must see
    import repro.io.json_io as json_io
    import repro.service.async_engine as async_engine
    import repro.service.client as client
    import repro.service.fleet as fleet
    import repro.service.http as http
    import repro.service.server as server

    def function(module, attr: str, name: str, **kw) -> None:
        original = getattr(module, attr)
        _rebind(original, _span_wrapper(tracer, original, name, **kw))

    def method(cls, attr: str, name: str, **kw) -> None:
        setattr(cls, attr, _span_wrapper(tracer, getattr(cls, attr), name, **kw))

    first_arg = {"rid": lambda args, result: _label(args[0])}
    second_arg = {"rid": lambda args, result: _label(args[1])}
    response = {"rid": lambda args, result: _label(result)}

    # -- core: one span per solver pass; Bindselect counts its chains.
    for cls, name in (
        (solver.BoundsPass, "core.bounds"),
        (solver.SchedulePass, "core.schedule"),
        (solver.CheckPass, "core.check"),
        (solver.RefinePass, "core.refine"),
    ):
        method(cls, "run", name)

    def chain_counts(args) -> Tuple[int, int, int]:
        chains = args[1].chain_cache
        return (
            tracer.max_chain_calls,
            chains.hits if chains is not None else 0,
            chains.misses if chains is not None else 0,
        )

    def chain_attrs(args, result, before) -> dict:
        after = chain_counts(args)
        return {
            "max_chain_calls": after[0] - before[0],
            "chain_hits": after[1] - before[1],
            "chain_misses": after[2] - before[2],
        }

    method(
        solver.BindPass, "run", "core.bind",
        before=chain_counts, attrs=chain_attrs,
    )
    function(binding, "bindselect", "core.bind")
    max_chain = binding.max_chain

    @functools.wraps(max_chain)
    def counted_max_chain(*args, **kwargs):
        tracer.max_chain_calls += 1
        return max_chain(*args, **kwargs)

    _rebind(max_chain, counted_max_chain)
    function(solver, "run_pipeline", "core.solver")
    function(solver, "solve_loop", "core.solver")
    function(delta, "replay_solve", "core.delta")
    method(problem.Problem, "fingerprint", "core.problem.fingerprint")
    function(validate, "validate_datapath", "analysis.validate")

    # -- io: the JSON codecs.
    for attr in list(vars(json_io)):
        if attr.endswith("_to_dict"):
            function(json_io, attr, "io.json_io.encode")
        elif attr.endswith("_from_dict"):
            function(json_io, attr, "io.json_io.decode")

    # -- engine: runs, deltas, the result cache and the process executor.
    method(engine.Engine, "run", "engine.engine", **second_arg)
    method(engine.Engine, "run_delta", "engine.replay", **second_arg)
    method(cache.ResultCache, "read", "engine.cache.read")
    method(
        cache.ResultCache, "write", "engine.cache.write",
        attrs=lambda args, result, _: {"bytes": len(args[2])},
    )
    method(cache.ResultCache, "flush", "engine.cache.write")
    method(
        executor.ProcessPerRunExecutor, "run_many", "engine.executor",
        rid=lambda args, result: _label(args[1][0]) if len(args[1]) == 1 else None,
        attrs=lambda args, result, _: {
            "child_seconds": sum(r.seconds for r in result),
        },
    )
    execute_request = engine.execute_request
    traced_execute = _span_wrapper(
        tracer, execute_request, "engine.execute", **first_arg
    )

    @functools.wraps(execute_request)
    def execute_and_dump(request):
        try:
            return traced_execute(request)
        finally:
            # A forked solve process exits without atexit hooks: hand its
            # spans over before the parent can reap it.
            if tracer.forked and dump_dir is not None:
                tracer.dump(dump_dir)

    _rebind(execute_request, execute_and_dump)

    # -- service: HTTP connections, route handlers, admission, forwards.
    method(http.HttpServerBase, "_handle_connection", "service.http")
    for attr in ("_handle_allocate", "_handle_batch", "_handle_delta"):
        method(server.AllocationServer, attr, "service.server", **response)
        method(fleet.FleetCoordinator, attr, "service.fleet", **response)
    method(async_engine.AsyncEngine, "run", "service.async_engine", **second_arg)
    method(
        async_engine.AsyncEngine, "run_delta", "service.async_engine",
        **second_arg,
    )
    forward = fleet.fetch_json
    traced_forward = _span_wrapper(
        tracer, forward, "service.fleet.forward",
        rid=lambda args, result: _label(args[4]),
    )

    @functools.wraps(forward)
    def forward_or_probe(host, port, method_name, path, *args, **kwargs):
        # Health probes share the transport; only POSTs are forwards.
        call = traced_forward if method_name == "POST" else forward
        return call(host, port, method_name, path, *args, **kwargs)

    fleet.fetch_json = forward_or_probe
    method(client.ServiceClient, "run", "service.client", **second_arg)
    method(client.ServiceClient, "run_delta", "service.client", **second_arg)

    # Executor threads run in a copy of the caller's context, so a span
    # opened on the event loop parents the work it hands to a thread.
    run_in_executor = asyncio.base_events.BaseEventLoop.run_in_executor

    def run_in_executor_with_context(self, pool, func, *args):
        context = contextvars.copy_context()
        return run_in_executor(self, pool, context.run, func, *args)

    asyncio.base_events.BaseEventLoop.run_in_executor = (
        run_in_executor_with_context
    )


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def load_spans(directory: Path) -> List[Span]:
    """Every span written to ``directory`` by :meth:`Tracer.dump`."""
    spans: List[Span] = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        spans.extend(tuple(span) for span in json.loads(path.read_text()))
    return spans


def _pid(span: Span) -> str:
    return span[0].split(".", 1)[0]


def link(spans: Iterable[Span]) -> List[Span]:
    """Spans with cross-process parents filled in.

    A span without a label takes the label of its first labelled
    descendant (a connection span learns which request it carried from
    its route handler).  A span with no parent in its own process then
    becomes the child of the innermost span of *another* process that
    has the same label and was open when it started.  (A server's
    connection span outlives the caller's by the socket close, so the
    child may end after its parent; :func:`self_times` clips it.)
    """
    spans = list(spans)
    known = {span[0] for span in spans}
    children: Dict[str, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[1] in known:
            children[span[1]].append(index)

    labels: Dict[str, Optional[str]] = {}

    def label_of(index: int) -> Optional[str]:
        span = spans[index]
        if span[0] not in labels:
            labels[span[0]] = span[5]
            if span[5] is None:
                for child in children.get(span[0], ()):
                    found = label_of(child)
                    if found is not None:
                        labels[span[0]] = found
                        break
        return labels[span[0]]

    by_label: Dict[str, List[int]] = defaultdict(list)
    for index in range(len(spans)):
        found = label_of(index)
        if found is not None:
            by_label[found].append(index)

    linked: List[Span] = []
    for index, span in enumerate(spans):
        sid, parent, name, start, end, _rid, attrs = span
        label = labels[sid]
        if parent not in known and label is not None:
            best = None
            for other in by_label[label]:
                candidate = spans[other]
                if (
                    _pid(candidate) != _pid(span)
                    and candidate[3] <= start <= candidate[4]
                    and (best is None or candidate[4] - candidate[3]
                         < best[4] - best[3])
                ):
                    best = candidate
            parent = best[0] if best is not None else None
        linked.append((sid, parent, name, start, end, label, attrs))
    return linked


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span id -> its duration minus the part its children cover.

    Children are clipped to the parent's interval; concurrent children
    (two solve threads under one batch) count their union once.
    """
    covered: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    bounds = {span[0]: (span[3], span[4]) for span in spans}
    for span in spans:
        parent = span[1]
        if parent in bounds:
            low, high = bounds[parent]
            start, end = max(span[3], low), min(span[4], high)
            if end > start:
                covered[parent].append((start, end))
    return {
        span[0]: (span[4] - span[3]) - union_length(covered.get(span[0], ()))
        for span in spans
    }
