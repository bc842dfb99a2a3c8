"""Warm-start delta solves: replay artifacts and ``Engine.run_delta``.

The core machinery lives in :mod:`repro.core.delta` (edit model,
verified replay walk); this module is the engine-side plumbing around
it:

**Replay artifacts.**  A successful (or deterministically infeasible)
``dpalloc`` solve can be recorded (:class:`repro.core.solver.
ReplayRecorder`) and stored as a *replay artifact*: the problem, the
option set, the per-iteration record stream, and the result envelope,
all JSON.  Artifacts are keyed like result-cache entries -- content key
of ``(problem fingerprint, "dpalloc", options)`` plus the package
version -- and stored in the engine's :class:`~repro.engine.cache.
ResultCache` when one is configured, else in a small bounded in-memory
store.  Loads are gated on the ``kind`` and ``schema`` discriminators:
an entry written by an older schema (or any foreign payload) is a
cache *miss*, never a crash -- ``run_delta`` falls back to a scratch
solve and overwrites it.

**The orchestration** (:func:`run_delta`).  Given a
:class:`~repro.engine.results.DeltaRequest`:

1. load the base artifact, or *prime* it with one recorded cold solve
   when the request carries the base :class:`~repro.core.problem.
   Problem` (a fingerprint-only request with no artifact is an error
   envelope -- the engine has nothing to replay);
2. apply the edits (:func:`repro.core.delta.apply_edits`); a no-op
   sequence (edited fingerprint == base fingerprint) returns the base
   envelope as-is;
3. serve the edited request from the result cache when possible;
4. when the edit footprint leaves the recorded stream replayable
   (deadline-only edits -- see :meth:`repro.core.delta.EditFootprint.
   replayable`), run the verified replay walk and resume the solve
   loop from the verified prefix; otherwise, or on any divergence the
   walk cannot bridge, fall back to a recorded scratch solve;
5. store a replay artifact for the *edited* problem, so successive
   edits chain warmly, and cache the envelope.

Every envelope ``run_delta`` returns is required canonical-byte
identical to a cold solve of the edited problem -- the differential
fuzz harness (``tools/fuzz_delta.py``) enforces exactly that.  The
warm-start provenance (strategy taken, verified/resumed iteration
counts) rides in the non-canonical ``delta`` field.

Concurrency: artifact stores are idempotent (same key -> same bytes),
so concurrent ``run_delta`` calls against one engine at worst duplicate
a solve, never corrupt state; the in-memory store takes a lock.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, replace
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from ..analysis.validate import ValidationError, validate_datapath
from ..core.delta import apply_edits, edits_footprint, replay_solve
from ..core.problem import InfeasibleError, Problem
from ..core.solver import DPAllocOptions, ReplayRecorder, run_pipeline
from .engine import content_key_from_fingerprint, execute_request
from .results import AllocationRequest, AllocationResult, DeltaRequest

if TYPE_CHECKING:
    from .engine import Engine

__all__ = [
    "DELTA_ALLOCATOR",
    "REPLAY_KIND",
    "REPLAY_MEMORY_BOUND",
    "REPLAY_SCHEMA",
    "replay_key",
    "run_delta",
]

REPLAY_KIND = "delta-replay"
REPLAY_SCHEMA = 1

# Delta solves are a DPAlloc capability: the replay records are the
# solver's own iteration stream, meaningless to the one-shot baselines.
DELTA_ALLOCATOR = "dpalloc"

# Entry bound of the in-memory artifact store (engines without a
# cache_dir).  FIFO: priming a long interactive session evicts the
# oldest bases first.
REPLAY_MEMORY_BOUND = 256


def replay_key(
    fingerprint: str, options: Mapping[str, Any]
) -> Optional[str]:
    """Storage key for the replay artifact of ``(base, options)``.

    Same identity as the result cache -- content key plus package
    version, with a ``:replay:`` discriminator so an artifact can never
    collide with the envelope entry of the same solve.  ``None`` when
    the options have no JSON identity (such solves are unrecordable).
    """
    content = content_key_from_fingerprint(
        fingerprint, DELTA_ALLOCATOR, options
    )
    if content is None:
        return None
    from .. import __version__

    return hashlib.sha256(
        f"{content}:replay:{__version__}".encode("utf-8")
    ).hexdigest()


# ----------------------------------------------------------------------
# artifact I/O
# ----------------------------------------------------------------------

def _artifact_payload(
    problem: Problem,
    options: Mapping[str, Any],
    records: List[Dict[str, Any]],
    envelope: AllocationResult,
) -> Dict[str, Any]:
    from ..io.json_io import allocation_result_to_dict, problem_to_dict

    return {
        "kind": REPLAY_KIND,
        "schema": REPLAY_SCHEMA,
        "problem": problem_to_dict(problem),
        "options": dict(options),
        "records": [dict(record) for record in records],
        # The envelope lives *in* the artifact so a full replay stays
        # serveable even after the result cache evicted the base entry.
        "envelope": allocation_result_to_dict(
            replace(envelope, delta=None, label=None)
        ),
    }


def _parse_artifact(payload: Any) -> Optional[Dict[str, Any]]:
    """Decode an artifact payload; ``None`` for anything unusable.

    The ``kind``/``schema`` gate is what keeps old caches loadable:
    entries written before the delta-replay schema (or by a future
    one) simply miss, and the caller re-solves and overwrites.
    """
    if (
        not isinstance(payload, dict)
        or payload.get("kind") != REPLAY_KIND
        or payload.get("schema") != REPLAY_SCHEMA
    ):
        return None
    from ..io.json_io import allocation_result_from_dict, problem_from_dict

    try:
        return {
            "problem": problem_from_dict(payload["problem"]),
            "options": dict(payload.get("options") or {}),
            "records": [dict(r) for r in payload.get("records") or ()],
            "envelope": allocation_result_from_dict(payload["envelope"]),
        }
    except Exception:  # noqa: BLE001 -- any malformed field is a miss
        return None


def _load_artifact(
    engine: "Engine", key: Optional[str]
) -> Optional[Dict[str, Any]]:
    if key is None:
        return None
    if engine._cache is not None:
        text = engine._cache.read(key)
        if text is None:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            engine._cache.invalidate(key)
            return None
        artifact = _parse_artifact(payload)
        if artifact is None:
            # Parseable JSON that is not a current-schema artifact
            # (pre-schema entry, foreign payload): reclaim the slot.
            engine._cache.invalidate(key)
        return artifact
    with engine._replay_lock:
        payload = engine._replay_memory.get(key)
    if payload is None:
        return None
    artifact = _parse_artifact(payload)
    if artifact is None:
        with engine._replay_lock:
            engine._replay_memory.pop(key, None)
    return artifact


def _store_artifact(
    engine: "Engine",
    key: Optional[str],
    problem: Problem,
    options: Mapping[str, Any],
    records: List[Dict[str, Any]],
    envelope: AllocationResult,
) -> None:
    if key is None:
        return
    payload = _artifact_payload(problem, options, records, envelope)
    if engine._cache is not None:
        engine._cache.write(key, json.dumps(payload, sort_keys=True))
        return
    with engine._replay_lock:
        memory = engine._replay_memory
        memory.pop(key, None)  # refresh insertion order on overwrite
        memory[key] = payload
        while len(memory) > REPLAY_MEMORY_BOUND:
            memory.pop(next(iter(memory)))


def _storable(result: AllocationResult) -> bool:
    """Same policy as the result cache: deterministic outcomes only.

    Infeasible bases are worth keeping -- their record stream is a
    valid replay prefix for a *relaxed* deadline edit.
    """
    return result.error is None or result.error.startswith("infeasible")


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def _execute_recorded(
    request: AllocationRequest,
) -> Tuple[AllocationResult, Optional[List[Dict[str, Any]]]]:
    """:func:`~repro.engine.engine.execute_request`, with recording.

    A byte-parity mirror of ``execute_request`` running the ``dpalloc``
    adapter -- same envelope construction, same error strings -- that
    additionally threads a :class:`ReplayRecorder` through the pass
    pipeline.  ``mode="best"`` (two pipelines race; no single record
    stream exists) delegates to the plain path and returns no records.
    """
    options = dict(request.options)
    if options.get("mode") == "best":
        return execute_request(request), None
    recorder = ReplayRecorder()
    began = time.perf_counter()
    datapath = None
    extras: Dict[str, Any] = {}
    error: Optional[str] = None
    try:
        opts = DPAllocOptions(**options) if options else None
        datapath = run_pipeline(request.problem, opts, recorder=recorder)
        extras = {"options": asdict(opts)} if opts else {}
        if datapath.trace:
            extras["trace_events"] = len(datapath.trace)
    except InfeasibleError as exc:
        error = f"infeasible: {exc}"
    except Exception as exc:  # noqa: BLE001 -- envelope, never raise
        error = f"error: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - began
    valid: Optional[bool] = None
    if datapath is not None:
        try:
            validate_datapath(request.problem, datapath)
            valid = True
        except ValidationError as exc:
            valid = False
            error = f"invalid: {exc}"
    result = AllocationResult(
        allocator=request.allocator,
        datapath=datapath,
        seconds=seconds,
        iterations=datapath.iterations if datapath is not None else 0,
        valid=valid,
        error=error,
        extras=extras,
        label=request.label,
    )
    return result, recorder.records


def _delta_error(
    request: DeltaRequest, message: str, began: float, meta: Dict[str, Any]
) -> AllocationResult:
    """Typed error envelope for requests that never reach a solve."""
    return AllocationResult(
        allocator=DELTA_ALLOCATOR,
        datapath=None,
        seconds=time.perf_counter() - began,
        iterations=0,
        valid=None,
        error=message,
        extras={},
        label=request.label,
        delta={**meta, "strategy": "error"},
    )


def _finish(engine: "Engine", result: AllocationResult) -> AllocationResult:
    if engine._cache is not None:
        engine._cache.flush()  # one budget check per delta request
    return result


def run_delta(engine: "Engine", request: DeltaRequest) -> AllocationResult:
    """Warm-start solve of ``request``; see :meth:`Engine.run_delta`."""
    began = time.perf_counter()
    base_fp = request.fingerprint()
    options = dict(request.options)
    meta: Dict[str, Any] = {
        "base_fingerprint": base_fp,
        "edits": len(request.edits),
    }

    base_key = replay_key(base_fp, options)
    artifact = _load_artifact(engine, base_key)
    if artifact is None:
        if request.base_problem is None:
            return _delta_error(
                request,
                f"delta: no replay artifact for base {base_fp} "
                "(supply base_problem to prime one)",
                began,
                meta,
            )
        # Prime: one recorded cold solve of the base.  Its envelope is
        # cached like any ordinary run of the same request would be.
        base_request = AllocationRequest(
            problem=request.base_problem,
            allocator=DELTA_ALLOCATOR,
            options=request.options,
            label=request.label,
        )
        primed_env, primed_records = _execute_recorded(base_request)
        engine._cache_store(engine.cache_key(base_request), primed_env)
        if primed_records is not None and _storable(primed_env):
            _store_artifact(
                engine, base_key, request.base_problem, options,
                primed_records, primed_env,
            )
        artifact = {
            "problem": request.base_problem,
            "options": options,
            "records": primed_records or [],
            "envelope": primed_env,
        }
        meta["primed"] = True

    base_problem: Problem = artifact["problem"]
    base_env: AllocationResult = artifact["envelope"]
    records: List[Dict[str, Any]] = artifact["records"]

    try:
        edited = apply_edits(base_problem, request.edits)
    except (KeyError, TypeError, ValueError) as exc:
        return _finish(engine, _delta_error(
            request, f"delta: {type(exc).__name__}: {exc}", began, meta
        ))

    if edited.fingerprint() == base_fp:
        # No-op sequence (including an empty one, the priming idiom):
        # the base envelope *is* the cold solve of the edited problem.
        return _finish(engine, replace(
            base_env,
            cached=False,
            label=request.label,
            delta={**meta, "strategy": "noop"},
        ))

    alloc_request = AllocationRequest(
        problem=edited,
        allocator=DELTA_ALLOCATOR,
        options=request.options,
        label=request.label,
    )
    cache_key = engine.cache_key(alloc_request)
    hit = engine._cache_load(cache_key, alloc_request)
    if hit is not None:
        return _finish(engine, replace(
            hit, delta={**meta, "strategy": "cache"}
        ))

    footprint = edits_footprint(request.edits, base_problem)
    outcome = None
    opts: Optional[DPAllocOptions] = None
    if (
        footprint.replayable
        and records
        and options.get("mode") != "best"
    ):
        try:
            opts = DPAllocOptions(**options) if options else None
            outcome = replay_solve(edited, opts, None, records)
        except Exception:  # noqa: BLE001 -- malformed records and the
            # like degrade to a scratch solve, never to a failed request
            outcome = None

    new_records: Optional[List[Dict[str, Any]]]
    if outcome is not None:
        meta.update(
            strategy=outcome.strategy,
            verified_iterations=outcome.verified_iterations,
            resumed_iterations=outcome.resumed_iterations,
        )
        seconds = time.perf_counter() - began
        if outcome.strategy == "replay":
            # Full replay: the recorded base datapath is, provably, the
            # cold solve of the edited problem.
            result = replace(
                base_env,
                seconds=seconds,
                cached=False,
                label=request.label,
                delta=dict(meta),
            )
            new_records = outcome.records
        elif outcome.datapath is None:
            # Infeasible continuation: same envelope a cold solve's
            # InfeasibleError would produce.
            result = AllocationResult(
                allocator=DELTA_ALLOCATOR,
                datapath=None,
                seconds=seconds,
                iterations=0,
                valid=None,
                error=f"infeasible: {outcome.error}",
                extras={},
                label=request.label,
                delta=dict(meta),
            )
            new_records = None
        else:
            datapath = outcome.datapath
            extras: Dict[str, Any] = (
                {"options": asdict(opts)} if opts else {}
            )
            if datapath.trace:
                extras["trace_events"] = len(datapath.trace)
            error: Optional[str] = None
            valid: Optional[bool] = None
            try:
                validate_datapath(edited, datapath)
                valid = True
            except ValidationError as exc:
                valid = False
                error = f"invalid: {exc}"
            result = AllocationResult(
                allocator=DELTA_ALLOCATOR,
                datapath=datapath,
                seconds=seconds,
                iterations=datapath.iterations,
                valid=valid,
                error=error,
                extras=extras,
                label=request.label,
                delta=dict(meta),
            )
            new_records = outcome.records
    else:
        result, new_records = _execute_recorded(alloc_request)
        result = replace(result, delta={**meta, "strategy": "scratch"})

    if new_records is not None and _storable(result):
        _store_artifact(
            engine,
            replay_key(edited.fingerprint(), options),
            edited,
            options,
            new_records,
            result,
        )
    engine._cache_store(cache_key, result)
    return _finish(engine, result)
