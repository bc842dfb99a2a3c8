"""Allocation-service benchmark: concurrent /batch vs serial run_batch.

Models the service's target workload (FpSynt-style tool-as-a-service):
many concurrent *small* requests from several clients, with the natural
duplication of designers iterating on the same kernels.  The stream is
``UNIQUE x REPEATS`` requests (distinct labels per repetition), split
round-robin across ``CLIENTS`` threads that each ``POST /batch`` their
slice to one live ``repro serve`` instance.

Measured against the offline path on the *same* stream:

* ``serial_seconds`` -- ``Engine.run_batch``, no cache (how the
  experiment harness runs today);
* ``serial_cached_seconds`` -- ``Engine.run_batch`` against a cold
  cache: within one batch every duplicate still solves fresh (lookups
  happen before any store), so a cache alone does not collapse the
  stream;
* ``service_seconds`` -- the served run, where single-flight dedup plus
  the shared result cache solve each unique problem once.

Every served envelope must be canonical-byte-identical to the serial
run's envelope for the same stream position -- the engine's parity
guarantee extended to the wire.  A second scenario measures the
steady-state per-request overhead: sequential warm ``/allocate`` calls
(all cache hits), reported as milliseconds per request.

Run with::

    PYTHONPATH=src python benchmarks/bench_service.py [--clients N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import tgff_requests  # noqa: E402  (shared problem grid)
from conftest import samples  # noqa: E402  (shared REPRO_SAMPLES helper)

from repro.engine import AllocationRequest, Engine  # noqa: E402
from repro.service import ServerThread, ServiceClient  # noqa: E402

SIZES = (24, 32)
RELAXATION = 0.3
REPEATS = 3


def build_stream(per_size: int) -> List[AllocationRequest]:
    """``unique x REPEATS`` small requests, distinct labels per repeat."""
    unique = tgff_requests(SIZES, per_size, RELAXATION)
    return [
        replace(request, label=f"{request.label}#r{repeat}")
        for repeat in range(REPEATS)
        for request in unique
    ]


def run_served(
    url: str, stream: List[AllocationRequest], clients: int
) -> List:
    """Fan the stream round-robin over ``clients`` /batch callers."""
    import threading

    slices = [
        [(index, stream[index]) for index in range(start, len(stream), clients)]
        for start in range(clients)
    ]
    slices = [chunk for chunk in slices if chunk]
    results: List = [None] * len(stream)
    errors: List[BaseException] = []

    def post_slice(chunk) -> None:
        try:
            client = ServiceClient(url)
            served = client.run_batch([request for _, request in chunk])
            for (index, _), result in zip(chunk, served):
                results[index] = result
        except BaseException as exc:  # noqa: BLE001 -- surface to parent
            errors.append(exc)

    threads = [
        threading.Thread(target=post_slice, args=(chunk,), daemon=True)
        for chunk in slices
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise AssertionError(f"served clients failed: {errors[0]}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent /batch client threads (default 4)")
    parser.add_argument("--workers", type=int, default=4,
                        help="server-side concurrent solve bound (default 4)")
    parser.add_argument("--samples", type=int, default=None,
                        help="graphs per size (default REPRO_SAMPLES or 2)")
    parser.add_argument(
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_service.json"
        ),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    per_size = args.samples if args.samples is not None else samples(2)
    stream = build_stream(per_size)
    unique_count = len(stream) // REPEATS

    # Offline baselines on the same stream.
    began = time.perf_counter()
    serial = Engine().run_batch(stream)
    serial_seconds = time.perf_counter() - began
    if not all(r.ok for r in serial):
        bad = [r.label for r in serial if not r.ok]
        raise AssertionError(f"benchmark stream cases failed: {bad}")

    offline_cache_dir = tempfile.mkdtemp(prefix="bench-service-offline-")
    try:
        began = time.perf_counter()
        Engine(cache_dir=offline_cache_dir).run_batch(stream)
        serial_cached_seconds = time.perf_counter() - began
    finally:
        shutil.rmtree(offline_cache_dir, ignore_errors=True)

    # The served run: one live server, cold shared cache.
    cache_dir = tempfile.mkdtemp(prefix="bench-service-cache-")
    try:
        engine = Engine(cache_dir=cache_dir, executor="process")
        with ServerThread(engine=engine, max_concurrency=args.workers) as st:
            probe = ServiceClient(st.url)
            probe.wait_healthy()
            began = time.perf_counter()
            served = run_served(st.url, stream, args.clients)
            service_seconds = time.perf_counter() - began

            identical = [r.canonical_json() for r in served] == \
                        [r.canonical_json() for r in serial]
            if not identical:
                raise AssertionError(
                    "served envelopes diverged from the serial run"
                )
            # Steady state: sequential warm /allocate calls (cache hits).
            warm = stream[:unique_count]
            latencies = []
            for request in warm:
                began = time.perf_counter()
                result = probe.run(request)
                latencies.append(time.perf_counter() - began)
                if not result.cached:
                    raise AssertionError("warm /allocate missed the cache")
            latencies.sort()
            stats = probe.stats()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    report = {
        "kind": "bench-service",
        "cpu_count": os.cpu_count(),
        "sizes": list(SIZES),
        "samples_per_size": per_size,
        "unique_cases": unique_count,
        "repeats": REPEATS,
        "stream_requests": len(stream),
        "clients": args.clients,
        "workers": args.workers,
        "serial_seconds": round(serial_seconds, 4),
        "serial_requests_per_second": round(
            len(stream) / max(serial_seconds, 1e-9), 3
        ),
        "serial_cached_seconds": round(serial_cached_seconds, 4),
        "service_seconds": round(service_seconds, 4),
        "service_requests_per_second": round(
            len(stream) / max(service_seconds, 1e-9), 3
        ),
        # The acceptance metric: served /batch throughput over the
        # stream vs the serial offline path (>= 1.0 required by
        # tools/check_bench.py).
        "throughput_ratio": round(
            serial_seconds / max(service_seconds, 1e-9), 3
        ),
        "results_identical": identical,
        "dedup": {
            "deduplicated": stats["deduplicated"],
            "completed": stats["completed"],
            "cache_hit_rate": stats["cache_hit_rate"],
        },
        "warm_allocate": {
            "requests": len(latencies),
            "p50_ms": round(1000 * latencies[len(latencies) // 2], 3),
            "max_ms": round(1000 * latencies[-1], 3),
        },
    }
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
