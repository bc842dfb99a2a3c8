"""Shardable sweeps: partition, run anywhere, merge deterministically.

A large wordlength-configuration sweep (thousands of problem x strategy
requests) does not fit one host.  This module splits such a sweep into
``N`` independent **shard manifests**, lets each shard run on its own
host or process (any ``Engine`` configuration -- pool, process-per-run,
cached), and merges the per-shard envelope files back into one
index-ordered batch result that is canonically identical to an
unsharded :meth:`Engine.run_batch` of the same requests.

Partitioning is deterministic and content-addressed: a request lands on
shard ``int(Problem.fingerprint()[:16], 16) % N``.  Two consequences:

* re-sharding the same sweep always produces the same partition -- no
  coordinator state to persist;
* every strategy run of the *same problem* lands on the same shard, so
  a shard-local result cache gets all the locality there is.

File formats (JSON, written via :func:`repro.io.save_json`):

* shard manifest: ``{"kind": "shard-manifest", "shard": i,
  "num_shards": N, "total": T, "entries": [{"index": j, "request":
  <allocation-request>}, ...]}``
* shard results: ``{"kind": "shard-results", ...same header...,
  "results": [{"index": j, "result": <allocation-result>}, ...]}``

``index`` is the request's position in the *original* unsharded list;
the merge orders by it and verifies exact coverage (every index once,
consistent headers), so a missing or doubled shard fails loudly instead
of silently reordering a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .results import AllocationRequest, AllocationResult

if TYPE_CHECKING:  # imported lazily at runtime to avoid import cycles
    from .engine import Engine

__all__ = [
    "ShardManifest",
    "load_shard_manifest",
    "merge_shard_results",
    "partition_requests",
    "run_shard",
    "shard_of",
    "write_shard_manifests",
]

PathLike = Union[str, Path]

MANIFEST_KIND = "shard-manifest"
RESULTS_KIND = "shard-results"


def shard_of(fingerprint: str, num_shards: int) -> int:
    """Deterministic shard index for a ``Problem.fingerprint()`` value."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return int(fingerprint[:16], 16) % num_shards


def partition_requests(
    requests: Sequence[AllocationRequest], num_shards: int
) -> List[List[int]]:
    """Partition request *indices* into ``num_shards`` buckets.

    Requests whose problems cannot be fingerprinted (models without a
    content-stable identity) cannot be sharded; the underlying
    ``ValueError`` propagates.
    """
    shards: List[List[int]] = [[] for _ in range(max(num_shards, 1))]
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    for index, request in enumerate(requests):
        shards[shard_of(request.problem.fingerprint(), num_shards)].append(index)
    return shards


@dataclass(frozen=True)
class ShardManifest:
    """One shard's worth of a sweep: original indices + their requests."""

    shard: int
    num_shards: int
    total: int
    indices: Tuple[int, ...]
    requests: Tuple[AllocationRequest, ...]

    def to_dict(self) -> Dict[str, Any]:
        from ..io.json_io import allocation_request_to_dict

        return {
            "kind": MANIFEST_KIND,
            "shard": self.shard,
            "num_shards": self.num_shards,
            "total": self.total,
            "entries": [
                {"index": index, "request": allocation_request_to_dict(request)}
                for index, request in zip(self.indices, self.requests)
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardManifest":
        if data.get("kind") != MANIFEST_KIND:
            raise ValueError(
                f"not a shard-manifest payload: {data.get('kind')!r}"
            )
        from ..io.json_io import allocation_request_from_dict

        entries = data["entries"]
        return cls(
            shard=int(data["shard"]),
            num_shards=int(data["num_shards"]),
            total=int(data["total"]),
            indices=tuple(int(entry["index"]) for entry in entries),
            requests=tuple(
                allocation_request_from_dict(entry["request"])
                for entry in entries
            ),
        )


def write_shard_manifests(
    requests: Sequence[AllocationRequest],
    num_shards: int,
    out_dir: PathLike,
    stem: str = "shard",
) -> List[Path]:
    """Partition ``requests`` and write one manifest file per shard.

    Every shard file is written -- an empty shard still produces a
    (zero-entry) manifest, so downstream tooling can run/merge shard
    ``0..N-1`` unconditionally.  Returns the manifest paths in shard
    order.
    """
    from ..io.json_io import save_json

    partition = partition_requests(requests, num_shards)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    width = max(2, len(str(num_shards - 1)))
    paths: List[Path] = []
    for shard, indices in enumerate(partition):
        manifest = ShardManifest(
            shard=shard,
            num_shards=num_shards,
            total=len(requests),
            indices=tuple(indices),
            requests=tuple(requests[index] for index in indices),
        )
        path = directory / f"{stem}-{shard:0{width}d}.json"
        save_json(manifest.to_dict(), path)
        paths.append(path)
    return paths


def load_shard_manifest(path: PathLike) -> ShardManifest:
    """Read one manifest written by :func:`write_shard_manifests`."""
    from ..io.json_io import load_json

    return ShardManifest.from_dict(load_json(path))


def run_shard(
    manifest: ShardManifest,
    engine: Optional["Engine"] = None,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> Dict[str, Any]:
    """Execute one shard and return its results payload.

    ``engine`` defaults to a fresh :class:`~repro.engine.engine.Engine`;
    pass a configured one to use a shard-local cache or the
    process-per-run executor fleet-wide.
    """
    from ..io.json_io import allocation_result_to_dict
    from .engine import Engine

    runner = engine if engine is not None else Engine()
    results = runner.run_batch(
        list(manifest.requests), workers=workers, executor=executor
    )
    return {
        "kind": RESULTS_KIND,
        "shard": manifest.shard,
        "num_shards": manifest.num_shards,
        "total": manifest.total,
        "results": [
            {"index": index, "result": allocation_result_to_dict(result)}
            for index, result in zip(manifest.indices, results)
        ],
    }


def merge_shard_results(
    payloads: Iterable[Dict[str, Any]]
) -> List[AllocationResult]:
    """Merge shard-results payloads into one index-ordered result list.

    Verifies the payloads describe the same sweep (consistent
    ``num_shards``/``total`` headers, no shard seen twice) and cover it
    exactly (every index ``0..total-1`` once).  Returns envelopes in
    original request order -- canonically identical to an unsharded
    ``run_batch``.

    Raises:
        ValueError: inconsistent or out-of-range headers, shard ids or
            indices, duplicate shards/indices, or missing indices.
    """
    from ..io.json_io import allocation_result_from_dict

    header: Optional[Tuple[int, int]] = None
    seen_shards: Dict[int, int] = {}
    collected: Dict[int, AllocationResult] = {}
    count = 0
    for payload in payloads:
        count += 1
        if not isinstance(payload, dict) or payload.get("kind") != RESULTS_KIND:
            kind = payload.get("kind") if isinstance(payload, dict) else payload
            raise ValueError(f"not a shard-results payload: {kind!r}")
        try:
            this_header = (int(payload["num_shards"]), int(payload["total"]))
        except (KeyError, TypeError, ValueError):
            raise ValueError(
                "malformed shard-results payload: missing or non-integer "
                "num_shards/total header"
            ) from None
        if this_header[0] < 1 or this_header[1] < 0:
            raise ValueError(
                f"malformed shard-results payload: num_shards must be >= 1 "
                f"and total >= 0, got (num_shards, total)={this_header}"
            )
        if header is None:
            header = this_header
        elif this_header != header:
            raise ValueError(
                f"shard payloads disagree: expected (num_shards, total)="
                f"{header}, got {this_header}"
            )
        try:
            shard = int(payload["shard"])
            entries = payload["results"]
            if not isinstance(entries, list):
                raise TypeError
        except (KeyError, TypeError, ValueError):
            raise ValueError(
                "malformed shard-results payload: missing shard id or "
                "results list"
            ) from None
        if not 0 <= shard < this_header[0]:
            raise ValueError(
                f"shard {shard} is outside [0, {this_header[0]})"
            )
        if shard in seen_shards:
            raise ValueError(f"shard {shard} appears more than once")
        seen_shards[shard] = len(entries)
        for entry in entries:
            try:
                index = int(entry["index"])
                result = allocation_result_from_dict(entry["result"])
            except ValueError:
                raise
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"malformed shard-results entry in shard {shard}: {exc!r}"
                ) from None
            if not 0 <= index < this_header[1]:
                raise ValueError(
                    f"request index {index} in shard {shard} is outside "
                    f"[0, {this_header[1]})"
                )
            if index in collected:
                raise ValueError(f"request index {index} appears twice")
            collected[index] = result
    if count == 0:
        raise ValueError("no shard-results payloads to merge")
    assert header is not None
    total = header[1]
    missing = [index for index in range(total) if index not in collected]
    if missing:
        raise ValueError(
            f"incomplete merge: {len(missing)}/{total} request indices "
            f"missing (e.g. {missing[:5]}); expected {header[0]} shards, "
            f"got {sorted(seen_shards)}"
        )
    return [collected[index] for index in range(total)]
