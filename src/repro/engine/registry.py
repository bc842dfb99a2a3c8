"""The allocator registry: one namespace for every allocation strategy.

Historically each consumer (CLI, experiments, benchmarks, examples) kept
its own dispatch table mapping method names to differently-shaped
callables -- ``allocate`` returns a :class:`~repro.core.solution.Datapath`
while the baselines return ``(Datapath, stats)`` tuples.  The registry
normalises all of them behind a single :class:`Allocator` calling
convention:

    fn(problem, **options) -> Datapath | (Datapath, extras_dict)

Strategies self-register with the :func:`register_allocator` decorator;
the six built-in strategies (dpalloc, ilp, two-stage, fds, clique-sort,
uniform) live in :mod:`repro.engine.adapters` and are loaded lazily on
first lookup so that ``import repro`` does not drag in the ILP solver
stack.

Registrations are per-process.  For strategies to be visible to
``Engine.run_batch`` pool workers on platforms whose multiprocessing
start method is ``spawn`` (macOS, Windows), register them at import
time of an importable module, not interactively in ``__main__`` --
``spawn`` children re-import modules and would only see the built-ins.
Linux's ``fork`` children inherit interactive registrations.
"""

from __future__ import annotations

import inspect
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)


@runtime_checkable
class Allocator(Protocol):
    """Calling convention every registered strategy satisfies."""

    def __call__(
        self, problem: object, **options: object
    ) -> Union[object, Tuple[object, Dict]]:
        ...

__all__ = [
    "Allocator",
    "UnknownAllocatorError",
    "allocator_names",
    "check_options",
    "get_allocator",
    "register_allocator",
    "unregister_allocator",
]

_REGISTRY: Dict[str, Allocator] = {}
_builtins_loaded = False


class UnknownAllocatorError(KeyError):
    """Lookup of an allocator name that was never registered."""

    def __init__(self, name: str, known: List[str]) -> None:
        super().__init__(name)
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return (
            f"unknown allocator {self.name!r}; "
            f"registered: {', '.join(self.known) or '(none)'}"
        )


def register_allocator(name: str) -> Callable[[Allocator], Allocator]:
    """Class/function decorator adding a strategy under ``name``.

    The wrapped callable must accept ``(problem, **options)`` and return
    either a bare ``Datapath`` or ``(Datapath, extras)`` where ``extras``
    is a JSON-compatible dict of solver-specific statistics (ILP model
    sizes, binding optimality flags, ...).

    Raises:
        ValueError: ``name`` is empty or already taken (re-registering
            the *same* callable is allowed, so modules survive re-import).
    """

    if not name or not isinstance(name, str):
        raise ValueError(f"allocator name must be a non-empty string: {name!r}")

    def decorator(fn: Allocator) -> Allocator:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(
                f"allocator {name!r} is already registered ({existing!r})"
            )
        _REGISTRY[name] = fn
        return fn

    return decorator


def _ensure_builtins() -> None:
    global _builtins_loaded
    if not _builtins_loaded:
        from . import adapters  # noqa: F401  (registers on import)

        # Only after a successful import: a failed attempt must retry
        # (and re-raise the real error) rather than leave the registry
        # permanently and silently empty.
        _builtins_loaded = True


def get_allocator(name: str) -> Allocator:
    """Look up a registered strategy.

    A built-in name that was removed with :func:`unregister_allocator`
    is restored on lookup (built-ins are never permanently lost to the
    process); a registered replacement under the same name wins over
    restoration.

    Raises:
        UnknownAllocatorError: no strategy is registered under ``name``.
    """
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        restored = _restore_builtin(name)
        if restored is not None:
            return restored
        raise UnknownAllocatorError(name, allocator_names()) from None


def check_options(name: str, options: Mapping[str, object]) -> None:
    """Reject option names the ``name`` allocator does not accept.

    The accepted names are the allocator's ``option_names`` attribute
    when it declares one (``dpalloc`` forwards ``**options`` to
    ``DPAllocOptions``), else the parameters its signature takes after
    the problem; a strategy taking undeclared ``**options`` accepts any.
    The service edge calls this so a misspelt option is a typed 400
    instead of an envelope carrying the allocator's ``TypeError``.

    Raises:
        UnknownAllocatorError: no strategy is registered under ``name``.
        ValueError: ``options`` names an option the strategy lacks.
    """
    fn = get_allocator(name)
    accepted = getattr(fn, "option_names", None)
    if accepted is None:
        params = list(inspect.signature(fn).parameters.values())[1:]
        if any(p.kind is p.VAR_KEYWORD for p in params):
            return
        accepted = [p.name for p in params if p.kind is not p.VAR_POSITIONAL]
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        raise ValueError(
            f"allocator {name!r} has no option(s) {unknown}; "
            f"accepted: {sorted(accepted)}"
        )


def _restore_builtin(name: str) -> Optional[Allocator]:
    """Re-register and return the built-in adapter for ``name``, if any.

    ``unregister_allocator`` on a built-in must not brick the registry
    for the rest of the process (historically ``_builtins_loaded``
    stayed ``True``, so the lazy loader never ran again and e.g.
    ``dpalloc`` was gone for good after a test teardown).  Restoration
    happens on lookup miss only: while a *different* callable is
    registered under the name (a plugin override), it wins.
    """
    from . import adapters

    fn = adapters.BUILTINS.get(name)
    if fn is not None:
        _REGISTRY[name] = fn
    return fn


def allocator_names() -> List[str]:
    """Sorted names of every registered strategy."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def unregister_allocator(name: str) -> None:
    """Remove a registered strategy (plugin teardown, test isolation).

    Raises:
        UnknownAllocatorError: no strategy is registered under ``name``.
    """
    _ensure_builtins()
    if name not in _REGISTRY:
        raise UnknownAllocatorError(name, allocator_names())
    del _REGISTRY[name]
