"""Reference solves for :mod:`perfbench.checks`, in a fresh interpreter.

Usage, from the root of a checkout::

    python3 perfbench/reference.py < problems.pickle

Reads a pickled list of problems on standard input, solves each cold
with ``Engine().run`` (the solver mode comes from ``REPRO_SOLVER`` in
the environment) and writes the pickled list of canonical envelopes,
label cleared, to standard output.  A plain child process, not a
``multiprocessing`` pool: a pool started with ``spawn`` leaves its
resource tracker running past the benchmark's exit.
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.engine import AllocationRequest, Engine  # noqa: E402

from perfbench.checks import canonical  # noqa: E402


def main() -> int:
    problems = pickle.load(sys.stdin.buffer)
    answers = [
        canonical(Engine().run(AllocationRequest(problem, "dpalloc")))
        for problem in problems
    ]
    pickle.dump(answers, sys.stdout.buffer)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
