"""Registry adapters for the six built-in allocation strategies.

Each adapter normalises one historical entry point onto the registry's
``(problem, **options) -> Datapath | (Datapath, extras)`` convention.
The original ``allocate_*`` functions remain the working internals and
stay importable from their home modules; nothing here re-implements
algorithmic behaviour.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Dict, Optional, Tuple

from ..core.dpalloc import DPAllocOptions, allocate
from ..core.problem import Problem
from ..core.solution import Datapath
from .registry import register_allocator

__all__ = ["dpalloc", "ilp", "two_stage", "fds", "clique_sort", "uniform"]


@register_allocator("dpalloc")
def dpalloc(problem: Problem, **options: object) -> Tuple[Datapath, Dict]:
    """The paper's heuristic; options are :class:`DPAllocOptions` fields.

    Runs through the :mod:`repro.core.solver` pass pipeline
    (incremental by default; ``REPRO_SOLVER=scratch`` recomputes every
    iteration from scratch with byte-identical canonical results).
    ``options={"trace": True}`` attaches the per-iteration
    :class:`~repro.core.solution.TraceEvent` sequence to the datapath.
    """
    opts = DPAllocOptions(**options) if options else None
    datapath = allocate(problem, opts)
    extras = {"options": asdict(opts)} if opts else {}
    if datapath.trace:
        extras["trace_events"] = len(datapath.trace)
    return datapath, extras


dpalloc.option_names = frozenset(f.name for f in fields(DPAllocOptions))


@register_allocator("ilp")
def ilp(
    problem: Problem, time_limit: Optional[float] = None
) -> Tuple[Datapath, Dict]:
    """Optimal time-indexed MILP [5]; ``time_limit`` in seconds (HiGHS)."""
    from ..baselines.ilp import allocate_ilp

    datapath, stats = allocate_ilp(problem, time_limit=time_limit)
    return datapath, {
        "num_variables": stats.num_variables,
        "num_constraints": stats.num_constraints,
        "solve_seconds": stats.solve_seconds,
    }


@register_allocator("two-stage")
def two_stage(
    problem: Problem, dp_limit: int = 13, node_budget: int = 200_000
) -> Tuple[Datapath, Dict]:
    """Two-stage wordlength-blind schedule + optimal binding [4]."""
    from ..baselines.two_stage import allocate_two_stage

    datapath, report = allocate_two_stage(
        problem, dp_limit=dp_limit, node_budget=node_budget
    )
    return datapath, {
        "optimal": report.optimal,
        "classes": report.classes,
        "largest_class": report.largest_class,
    }


@register_allocator("fds")
def fds(
    problem: Problem, dp_limit: int = 13, node_budget: int = 200_000
) -> Tuple[Datapath, Dict]:
    """Force-directed scheduling + optimal no-latency-increase binding."""
    from ..baselines.fds import allocate_fds

    datapath, report = allocate_fds(
        problem, dp_limit=dp_limit, node_budget=node_budget
    )
    return datapath, {
        "optimal": report.optimal,
        "classes": report.classes,
        "largest_class": report.largest_class,
    }


@register_allocator("clique-sort")
def clique_sort(problem: Problem) -> Datapath:
    """Descending-wordlength clique partitioning [14]."""
    from ..baselines.clique_sort import allocate_clique_sort

    return allocate_clique_sort(problem)


@register_allocator("uniform")
def uniform(problem: Problem) -> Datapath:
    """Uniform-wordlength (DSP-processor style) allocation."""
    from ..baselines.uniform import allocate_uniform

    return allocate_uniform(problem)


# Canonical name -> adapter mapping.  The registry uses this to restore
# a built-in that was removed with ``unregister_allocator`` (test
# teardown, plugin experiments): a lookup miss on one of these names
# re-registers the adapter instead of failing for the rest of the
# process.
BUILTINS = {
    "dpalloc": dpalloc,
    "ilp": ilp,
    "two-stage": two_stage,
    "fds": fds,
    "clique-sort": clique_sort,
    "uniform": uniform,
}
