"""JSON serialisation of graphs, netlists, and datapaths.

Enables tool-flow composition: dump a kernel from one process, allocate
in another, archive solutions next to EXPERIMENTS.md, or hand a datapath
to external tooling.  All dictionaries are plain JSON-compatible types;
``save_*`` / ``load_*`` wrap them with files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Union

if TYPE_CHECKING:  # imported lazily at runtime to avoid import cycles
    from ..core.delta import Edit
    from ..core.problem import Problem
    from ..engine.results import AllocationRequest, AllocationResult

from ..core.binding import Binding, BoundClique
from ..core.solution import Datapath, TraceEvent
from ..ir.ops import Operation
from ..ir.seqgraph import SequencingGraph
from ..resources.types import ResourceType
from ..sim.netlist import Netlist

__all__ = [
    "EDIT_KIND",
    "check_kind",
    "graph_to_dict",
    "graph_from_dict",
    "netlist_to_dict",
    "netlist_from_dict",
    "datapath_to_dict",
    "datapath_from_dict",
    "edit_to_dict",
    "edit_from_dict",
    "trace_event_to_dict",
    "trace_event_from_dict",
    "problem_to_dict",
    "problem_from_dict",
    "allocation_request_to_dict",
    "allocation_request_from_dict",
    "allocation_result_to_dict",
    "allocation_result_from_dict",
    "save_json",
    "load_json",
]

PathLike = Union[str, Path]


def check_kind(data: Any, kind: str, noun: str) -> None:
    """Raise ``ValueError`` unless ``data`` is a JSON object of ``kind``.

    Every deserialiser starts here, so a payload that is not an object
    at all (a list, a string, a number) fails with the same typed error
    as one with the wrong ``kind`` discriminator.  ``noun`` names the
    payload in the message, article included (``"a netlist"``).
    """
    found = data.get("kind") if isinstance(data, dict) else type(data).__name__
    if not isinstance(data, dict) or found != kind:
        raise ValueError(f"not {noun} payload: {found!r}")


def _object(data: Any, field: str) -> Dict:
    """A nested payload field that must be a JSON object."""
    if not isinstance(data, dict):
        raise ValueError(f"{field!r} must be a JSON object, got {data!r}")
    return data


# ----------------------------------------------------------------------
# sequencing graphs
# ----------------------------------------------------------------------

def graph_to_dict(graph: SequencingGraph) -> Dict:
    """Serialise a sequencing graph."""
    return {
        "kind": "sequencing-graph",
        "operations": [
            {
                "name": op.name,
                "op": op.kind,
                "widths": list(op.operand_widths),
            }
            for op in graph.operations
        ],
        "dependencies": [list(edge) for edge in graph.edges()],
    }


def graph_from_dict(data: Dict) -> SequencingGraph:
    """Deserialise a sequencing graph."""
    check_kind(data, "sequencing-graph", "a sequencing graph")
    graph = SequencingGraph()
    for entry in data["operations"]:
        graph.add_operation(
            Operation(entry["name"], entry["op"], tuple(entry["widths"]))
        )
    for producer, consumer in data["dependencies"]:
        graph.add_dependency(producer, consumer)
    return graph


# ----------------------------------------------------------------------
# netlists
# ----------------------------------------------------------------------

def netlist_to_dict(netlist: Netlist) -> Dict:
    """Serialise a netlist (graph + wiring + widths)."""
    return {
        "kind": "netlist",
        "graph": graph_to_dict(netlist.graph),
        "inputs": dict(netlist.inputs),
        "constants": dict(netlist.constants),
        "wiring": {op: list(src) for op, src in netlist.wiring.items()},
        "out_widths": dict(netlist.out_widths),
    }


def netlist_from_dict(data: Dict) -> Netlist:
    """Deserialise a netlist."""
    check_kind(data, "netlist", "a netlist")
    return Netlist(
        graph=graph_from_dict(data["graph"]),
        inputs={k: int(v) for k, v in data["inputs"].items()},
        constants={k: int(v) for k, v in data["constants"].items()},
        wiring={k: tuple(v) for k, v in data["wiring"].items()},
        out_widths={k: int(v) for k, v in data["out_widths"].items()},
    )


# ----------------------------------------------------------------------
# datapaths and solver iteration traces
# ----------------------------------------------------------------------

def trace_event_to_dict(event: TraceEvent) -> Dict:
    """Serialise one solver iteration trace event.

    The telemetry fields (``pass_ms``, chain-cache counters) are
    emitted only when populated, so they survive wire round-trips
    (service responses, batch files, the result cache) -- but they are
    *non-canonical*: ``AllocationResult.canonical_dict()`` strips them,
    exactly as it strips ``seconds``, because wall-clock and
    mode-dependent bytes would break the parity contract.
    """
    payload = {
        "iteration": event.iteration,
        "move": event.move,
        "target": event.target,
        "pool": event.pool,
        "makespan": event.makespan,
        "area": event.area,
        "scheduling_set_size": event.scheduling_set_size,
    }
    if event.pass_ms is not None:
        payload["pass_ms"] = dict(event.pass_ms)
    if event.cache_hits is not None:
        payload["cache_hits"] = event.cache_hits
    if event.cache_misses is not None:
        payload["cache_misses"] = event.cache_misses
    if event.cache_evicted is not None:
        payload["cache_evicted"] = event.cache_evicted
    return payload


def trace_event_from_dict(data: Dict) -> TraceEvent:
    """Deserialise one solver iteration trace event."""
    pass_ms = data.get("pass_ms")
    return TraceEvent(
        iteration=int(data["iteration"]),
        move=data["move"],
        target=data.get("target"),
        pool=data.get("pool"),
        makespan=int(data["makespan"]),
        area=float(data["area"]),
        scheduling_set_size=int(data["scheduling_set_size"]),
        pass_ms=(
            {k: float(v) for k, v in pass_ms.items()}
            if pass_ms is not None
            else None
        ),
        cache_hits=data.get("cache_hits"),
        cache_misses=data.get("cache_misses"),
        cache_evicted=data.get("cache_evicted"),
    )


def datapath_to_dict(datapath: Datapath) -> Dict:
    """Serialise a datapath solution.

    The per-iteration solver trace is included only when present
    (``DPAllocOptions(trace=True)``), so untraced payloads keep their
    historical shape; the refinement-step trace is omitted.
    """
    payload = {
        "kind": "datapath",
        "method": datapath.method,
        "schedule": dict(datapath.schedule),
        "cliques": [
            {
                "resource_kind": clique.resource.kind,
                "resource_widths": list(clique.resource.widths),
                "ops": list(clique.ops),
            }
            for clique in datapath.binding.cliques
        ],
        "upper_bounds": dict(datapath.upper_bounds),
        "bound_latencies": dict(datapath.bound_latencies),
        "makespan": datapath.makespan,
        "area": datapath.area,
        "iterations": datapath.iterations,
    }
    if datapath.trace:
        payload["trace"] = [trace_event_to_dict(e) for e in datapath.trace]
    return payload


def datapath_from_dict(data: Dict) -> Datapath:
    """Deserialise a datapath solution."""
    check_kind(data, "datapath", "a datapath")
    cliques = tuple(
        BoundClique(
            ResourceType(entry["resource_kind"], tuple(entry["resource_widths"])),
            tuple(entry["ops"]),
        )
        for entry in data["cliques"]
    )
    return Datapath(
        schedule={k: int(v) for k, v in data["schedule"].items()},
        binding=Binding(cliques),
        upper_bounds={k: int(v) for k, v in data["upper_bounds"].items()},
        bound_latencies={k: int(v) for k, v in data["bound_latencies"].items()},
        makespan=int(data["makespan"]),
        area=float(data["area"]),
        iterations=int(data.get("iterations", 1)),
        method=data.get("method", "unknown"),
        trace=tuple(
            trace_event_from_dict(entry) for entry in data.get("trace", ())
        ),
    )


# ----------------------------------------------------------------------
# problems and allocation requests (shard manifests, service payloads)
# ----------------------------------------------------------------------

def _model_to_dict(model: object) -> Dict:
    """Serialise a technology model by type name + dataclass params.

    Only the built-in frozen-dataclass SONIC models round-trip --
    callable-table models (``TableLatencyModel``/``TableAreaModel``)
    hold arbitrary functions and have no JSON identity, mirroring the
    ``Problem.fingerprint()`` rules.
    """
    import dataclasses

    from ..resources.area import SonicAreaModel
    from ..resources.latency import SonicLatencyModel

    if isinstance(model, (SonicLatencyModel, SonicAreaModel)):
        return {
            "type": type(model).__name__,
            "params": dataclasses.asdict(model),
        }
    raise ValueError(
        f"{type(model).__name__} is not JSON-serialisable; shard "
        f"manifests and problem payloads support the built-in SONIC "
        f"models only"
    )


def _model_from_dict(data: Dict) -> object:
    from ..resources.area import SonicAreaModel
    from ..resources.latency import SonicLatencyModel

    known = {
        "SonicLatencyModel": SonicLatencyModel,
        "SonicAreaModel": SonicAreaModel,
    }
    data = _object(data, "model")
    try:
        cls = known[data["type"]]
    except KeyError:
        raise ValueError(f"unknown model type: {data.get('type')!r}") from None
    return cls(**data.get("params", {}))


def problem_to_dict(problem: "Problem") -> Dict:
    """Serialise a :class:`~repro.core.problem.Problem` instance."""
    return {
        "kind": "problem",
        "graph": graph_to_dict(problem.graph),
        "latency_constraint": problem.latency_constraint,
        "latency_model": _model_to_dict(problem.latency_model),
        "area_model": _model_to_dict(problem.area_model),
        "resource_constraints": (
            dict(problem.resource_constraints)
            if problem.resource_constraints is not None
            else None
        ),
    }


def problem_from_dict(data: Dict) -> "Problem":
    """Deserialise a :class:`~repro.core.problem.Problem` instance."""
    check_kind(data, "problem", "a problem")
    from ..core.problem import Problem

    constraints = data.get("resource_constraints")
    return Problem(
        graph=graph_from_dict(data["graph"]),
        latency_constraint=int(data["latency_constraint"]),
        latency_model=_model_from_dict(data["latency_model"]),
        area_model=_model_from_dict(data["area_model"]),
        resource_constraints=(
            {
                k: int(v)
                for k, v in _object(constraints, "resource_constraints").items()
            }
            if constraints is not None
            else None
        ),
    )


def allocation_request_to_dict(request: "AllocationRequest") -> Dict:
    """Serialise an :class:`~repro.engine.results.AllocationRequest`."""
    payload = {
        "kind": "allocation-request",
        "problem": problem_to_dict(request.problem),
        "allocator": request.allocator,
        "options": dict(request.options),
        "label": request.label,
        "timeout": request.timeout,
    }
    if request.priority is not None:
        # Emitted only when set, so artifacts written before the field
        # existed (shard manifests, committed fixtures) stay
        # byte-stable under a round-trip.
        payload["priority"] = request.priority
    return payload


def allocation_request_from_dict(data: Dict) -> "AllocationRequest":
    """Deserialise an :class:`~repro.engine.results.AllocationRequest`."""
    check_kind(data, "allocation-request", "an allocation-request")
    from ..engine.results import AllocationRequest

    return AllocationRequest(
        problem=problem_from_dict(data["problem"]),
        allocator=data["allocator"],
        options=dict(data.get("options") or {}),
        label=data.get("label"),
        timeout=data.get("timeout"),
        priority=data.get("priority"),
    )


# ----------------------------------------------------------------------
# delta edits
# ----------------------------------------------------------------------

EDIT_KIND = "delta-edit"


def edit_to_dict(edit: "Edit") -> Dict:
    """Serialise one :data:`repro.core.delta.Edit`."""
    from ..core.delta import ConstraintEdit, DeadlineEdit, WordlengthEdit

    if isinstance(edit, DeadlineEdit):
        return {"kind": EDIT_KIND, "edit": "deadline", "latency": edit.latency}
    if isinstance(edit, WordlengthEdit):
        return {
            "kind": EDIT_KIND,
            "edit": "wordlength",
            "operation": edit.operation,
            "widths": list(edit.widths),
        }
    if isinstance(edit, ConstraintEdit):
        return {
            "kind": EDIT_KIND,
            "edit": "constraint",
            "resource_kind": edit.kind,
            "limit": edit.limit,
        }
    raise ValueError(f"not an edit: {edit!r}")


def edit_from_dict(data: Dict) -> "Edit":
    """Deserialise one :data:`repro.core.delta.Edit`."""
    from ..core.delta import ConstraintEdit, DeadlineEdit, WordlengthEdit

    check_kind(data, EDIT_KIND, f"a {EDIT_KIND}")
    which = data.get("edit")
    if which == "deadline":
        return DeadlineEdit(latency=int(data["latency"]))
    if which == "wordlength":
        return WordlengthEdit(
            operation=data["operation"], widths=tuple(data["widths"])
        )
    if which == "constraint":
        limit = data.get("limit")
        return ConstraintEdit(
            kind=data["resource_kind"],
            limit=int(limit) if limit is not None else None,
        )
    raise ValueError(f"unknown edit type: {which!r}")


# ----------------------------------------------------------------------
# allocation-result envelopes
# ----------------------------------------------------------------------

def allocation_result_to_dict(result: "AllocationResult") -> Dict:
    """Serialise an :class:`~repro.engine.results.AllocationResult`."""
    payload = {
        "kind": "allocation-result",
        "allocator": result.allocator,
        "datapath": (
            datapath_to_dict(result.datapath)
            if result.datapath is not None
            else None
        ),
        "seconds": result.seconds,
        "iterations": result.iterations,
        "valid": result.valid,
        "error": result.error,
        "extras": dict(result.extras),
        "label": result.label,
        "cached": result.cached,
    }
    if result.delta is not None:
        payload["delta"] = dict(result.delta)
    return payload


def allocation_result_from_dict(data: Dict) -> "AllocationResult":
    """Deserialise an :class:`~repro.engine.results.AllocationResult`."""
    check_kind(data, "allocation-result", "an allocation-result")
    from ..engine.results import AllocationResult

    datapath = data.get("datapath")
    delta = data.get("delta")
    return AllocationResult(
        allocator=data["allocator"],
        datapath=datapath_from_dict(datapath) if datapath is not None else None,
        seconds=float(data.get("seconds", 0.0)),
        iterations=int(data.get("iterations", 0)),
        valid=data.get("valid"),
        error=data.get("error"),
        extras=dict(data.get("extras") or {}),
        label=data.get("label"),
        cached=bool(data.get("cached", False)),
        delta=dict(delta) if delta is not None else None,
    )


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------

def save_json(payload: Dict, path: PathLike) -> None:
    """Write a serialised payload as pretty-printed JSON."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_json(path: PathLike) -> Dict:
    """Read a JSON payload written by :func:`save_json`."""
    return json.loads(Path(path).read_text())
