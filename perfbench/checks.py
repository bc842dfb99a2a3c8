"""Correctness checks, run after the timed region.

Every answer a workload gets back is checked twice:

* its datapath (when it has one) must pass the independent validator,
  :func:`repro.analysis.validate_datapath`;
* its canonical bytes must equal those of a reference solve of the same
  problem, computed here from scratch.  The reference depends on the
  workload: a ``REPRO_SOLVER=scratch`` solve for ``cold-sweep``, a cold
  ``Engine.run`` in a fresh interpreter for the others.

The label is the one canonical field a request chooses freely, so both
sides are compared with it cleared.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis import ValidationError, validate_datapath
from repro.core.problem import Problem
from repro.engine import AllocationResult


def canonical(result: AllocationResult) -> str:
    """Canonical bytes of an envelope, label cleared."""
    payload = result.canonical_dict()
    payload["label"] = None
    return json.dumps(payload, sort_keys=True)


REFERENCE_SCRIPT = Path(__file__).resolve().parent / "reference.py"


def reference_envelopes(
    problems: Iterable[Problem], solver: Optional[str] = None
) -> Dict[str, str]:
    """Fingerprint -> canonical reference envelope of each distinct
    problem, solved cold in fresh interpreters (one per core) running
    ``perfbench/reference.py``, each waited for before this returns."""
    distinct: Dict[str, Problem] = {}
    for problem in problems:
        distinct.setdefault(problem.fingerprint(), problem)
    keys = list(distinct)
    workers = max(1, min(len(os.sched_getaffinity(0)), len(keys)))
    shares = [keys[index::workers] for index in range(workers)]
    env = dict(os.environ)
    if solver is not None:
        env["REPRO_SOLVER"] = solver
    else:
        env.pop("REPRO_SOLVER", None)
    children: List[subprocess.Popen] = []
    try:
        for share in shares:
            children.append(subprocess.Popen(
                [sys.executable, str(REFERENCE_SCRIPT)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            ))
        for child, share in zip(children, shares):
            child.stdin.write(pickle.dumps([distinct[key] for key in share]))
            child.stdin.close()
        answers: Dict[str, str] = {}
        for child, share in zip(children, shares):
            output = child.stdout.read()
            child.stdout.close()
            if child.wait() != 0:
                raise RuntimeError(
                    f"reference solver exited with {child.returncode}"
                )
            answers.update(zip(share, pickle.loads(output)))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
    return answers


def check_answer(
    problem: Problem, result: AllocationResult, reference: str
) -> Optional[str]:
    """``None`` when ``result`` is a right answer to ``problem``, else
    the reason it is wrong."""
    if result.datapath is not None:
        try:
            validate_datapath(problem, result.datapath)
        except ValidationError as exc:
            return f"datapath fails validation: {exc}"
    if canonical(result) != reference:
        return "canonical bytes differ from the reference solve"
    return None


def failed(result: AllocationResult) -> bool:
    """An error envelope; infeasibility is an answer, not a failure."""
    return result.error is not None and not result.error.startswith(
        "infeasible"
    )


def check_all(
    answers: List[Tuple[Problem, AllocationResult]],
    references: Dict[str, str],
    result,
) -> None:
    """Check every ``(problem, envelope)`` pair into ``result``."""
    for problem, envelope in answers:
        reason = check_answer(problem, envelope, references[problem.fingerprint()])
        if reason is not None:
            result.flag(f"{envelope.label}: {reason}")
