"""One set-up of an in-process workload, in a fresh interpreter.

Usage, from the root of a checkout::

    python3 perfbench/probe.py cold-sweep DIR

Imports the engine and the input generator, builds the engine the
workload uses and solves the fixed warm-up problem (``edit-session``
primes it as a delta base in a result cache under ``DIR``), then prints
``ready``.  :func:`perfbench.workloads.setup_seconds` times this from
launch to that line.  Nothing else is imported, so ``setup_s`` of the
in-process workloads covers only the interpreter, the engine's imports,
the engine and the warm-up solve.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.engine import AllocationRequest, DeltaRequest, Engine  # noqa: E402

from perfbench.inputs import warmup_problem  # noqa: E402


def main(argv) -> int:
    name, work = argv[0], Path(argv[1])
    if name == "cold-sweep":
        Engine().run(AllocationRequest(warmup_problem(), "dpalloc"))
    elif name == "edit-session":
        engine = Engine(cache_dir=work / "probe-cache")
        engine.run_delta(DeltaRequest(base_problem=warmup_problem()))
    else:
        raise SystemExit(f"no in-process set-up for {name!r}")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
