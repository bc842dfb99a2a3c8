"""Run the benchmark: one workload, or all of them.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, in turn

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every metric is also printed on its own line with its unit.  The exit
code is 0 only when every answer passed the correctness checks.

Scratch files (caches, spans, server logs) live in a fresh directory
under ``.perfbench-work/`` in the checkout and are removed at exit.

Every process a run starts is stopped and waited for before it exits.
On Linux the command also makes itself the child subreaper, so a
process orphaned further down (a solve forked by a served worker that
stopped mid-request) is adopted, then stopped and reaped at exit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.config import WORKLOADS  # noqa: E402
from perfbench.measure import process_table  # noqa: E402


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes the run: seconds x the workload's "
                             "planned operation rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds a leftover child gets between SIGTERM and SIGKILL.
REAP_GRACE_S = 5.0


def _terminated(signum, frame) -> None:
    raise SystemExit(128 + signum)  # so the reaping ``finally`` runs


def _adopt_orphans() -> None:
    """Route SIGTERM through ``main``'s ``finally`` and adopt orphaned
    descendants, so that :func:`_reap_children` sees every process."""
    signal.signal(signal.SIGTERM, _terminated)
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: children are still stopped, grandchildren not adopted


def _children() -> List[int]:
    return [pid for pid, parent, _ in process_table() if parent == os.getpid()]


def _reap_children() -> None:
    """Stop and wait for every child still here: SIGTERM, then SIGKILL
    once :data:`REAP_GRACE_S` has passed."""
    signalled = set()
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        pids = _children()
        if not pids:
            return
        late = time.monotonic() > deadline
        for pid in pids:
            if late or pid not in signalled:
                signalled.add(pid)
                try:
                    os.kill(pid, signal.SIGKILL if late else signal.SIGTERM)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.01)


def _run_all(args) -> int:
    """Each workload in its own interpreter (peak RSS stays its own)."""
    status = 0
    summary = {}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(completed.stdout, end="")
        lines = completed.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines else None
        status = status or completed.returncode
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    _adopt_orphans()
    try:
        return _main(_arguments(argv))
    finally:
        _reap_children()


def _main(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    from perfbench.workloads import run

    scratch_root = ROOT / ".perfbench-work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.emit()
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
