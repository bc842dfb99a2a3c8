"""repro.engine -- the platform layer over every allocation strategy.

One registry (:func:`register_allocator` / :func:`get_allocator` /
:func:`allocator_names`), one request/result envelope
(:class:`AllocationRequest` / :class:`AllocationResult`), and one runner
(:class:`Engine`) with serial and parallel batch execution, per-run
timeouts, and an optional on-disk result cache keyed by
``Problem.fingerprint()``.

Typical use::

    from repro.engine import AllocationRequest, Engine

    engine = Engine(cache_dir=".repro-cache")
    result = engine.run(AllocationRequest(problem, "dpalloc"))
    if result.ok:
        print(result.datapath.summary())
    else:
        print(result.error)

    batch = engine.run_batch(
        [AllocationRequest(p, name) for p in problems for name in names],
        workers=4,
    )

Scaling surfaces on top of the engine:

* ``Engine(executor="process")`` -- preemptive process-per-run
  execution with hard per-solve deadlines
  (:mod:`repro.engine.executor`);
* :mod:`repro.engine.sharding` -- partition a sweep by
  ``Problem.fingerprint()`` into shard manifests, run them anywhere,
  merge the envelope files back deterministically;
* ``Engine(cache_dir=..., cache_max_mb=...)`` -- result-cache lifecycle
  (one file per entry, ``cache_stats()``, LRU eviction;
  :mod:`repro.engine.cache`);
* ``Engine.run_delta(DeltaRequest(...))`` -- warm-start re-solves of
  edited problems by verified replay of a recorded base solve
  (:mod:`repro.engine.replay`, :mod:`repro.core.delta`), canonical-byte
  identical to a cold solve.
"""

from .backend import Backend
from .cache import ResultCache
from .engine import (
    EXECUTORS,
    Engine,
    content_key_from_fingerprint,
    execute_request,
    request_content_key,
    versioned_content_key,
)
from .executor import ProcessPerRunExecutor
from .registry import (
    Allocator,
    UnknownAllocatorError,
    allocator_names,
    get_allocator,
    register_allocator,
    unregister_allocator,
)
from .results import (
    PRIORITY_CLASSES,
    AllocationRequest,
    AllocationResult,
    DeltaRequest,
)
from .sharding import (
    ShardManifest,
    load_shard_manifest,
    merge_shard_results,
    partition_requests,
    run_shard,
    shard_of,
    write_shard_manifests,
)

__all__ = [
    "Allocator",
    "AllocationRequest",
    "AllocationResult",
    "Backend",
    "DeltaRequest",
    "EXECUTORS",
    "Engine",
    "PRIORITY_CLASSES",
    "ProcessPerRunExecutor",
    "ResultCache",
    "ShardManifest",
    "UnknownAllocatorError",
    "allocator_names",
    "content_key_from_fingerprint",
    "execute_request",
    "get_allocator",
    "load_shard_manifest",
    "merge_shard_results",
    "partition_requests",
    "register_allocator",
    "request_content_key",
    "run_shard",
    "shard_of",
    "unregister_allocator",
    "versioned_content_key",
    "write_shard_manifests",
]
