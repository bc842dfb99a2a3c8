"""The built-in reprolint rules, RL001..RL005.

Each rule protects one of the repo's standing correctness contracts
(see ``docs/static-analysis.md``):

* **RL001 / RL002** -- the byte-identity parity contract: the
  incremental solver must equal ``REPRO_SOLVER=scratch`` and served
  envelopes must equal ``Engine.run_batch``, byte for byte.  Any
  hash-ordered iteration or wall-clock/random input on a
  canonical-result path can silently break that.
* **RL003 / RL004** -- the concurrency contract: ``ResultCache`` (and
  anything else declaring ``_lock``) is shared by concurrent service
  requests, and ``AsyncEngine``/``AllocationServer`` coroutines must
  never block the event loop.
* **RL005** -- registry/envelope hygiene: allocator registrations are
  the extension surface; collisions and wrongly-typed strategies fail
  far from their cause at runtime.

Rules are syntactic with a little per-scope inference -- no imports of
the checked code, no type checker.  That trades a few misses for zero
runtime dependence; intentional sites get reasoned inline
suppressions (``# reprolint: disable=RLxxx(reason)``).
"""

from __future__ import annotations

import ast
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..passaudit.callgraph import CallGraph, ClassInfo, module_name
from ..passaudit.ordertaint import OrderTaint, TaintConfig
from .framework import Finding, LintRule, ModuleSource, register_rule

__all__ = [
    "AsyncBlockingRule",
    "LockDisciplineRule",
    "NondeterministicInputRule",
    "RegistryHygieneRule",
    "SetIterationRule",
]

# Subpackages whose outputs feed canonical (byte-compared) results.
CANONICAL_SCOPE = ("core", "ir", "baselines", "io")


def _qualname(node: ast.AST) -> Optional[str]:
    """Dotted name of a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _qualname(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def _walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function/class
    definitions (they are separate scopes, checked on their own)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _function_scopes(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, Optional[ast.ClassDef]]]:
    """Every function/async-function in ``tree`` with its owning class
    (``None`` for free functions), however deeply nested."""

    def visit(node: ast.AST, owner: Optional[ast.ClassDef]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, owner
                yield from visit(child, None)
            else:
                yield from visit(child, owner)

    return visit(tree, None)


# ======================================================================
# RL001 -- determinism: unordered iteration
# ======================================================================
@register_rule
class SetIterationRule(LintRule):
    """RL001 determinism: no order-sensitive consumption of unordered
    containers on canonical-result paths.

    ``set``/``frozenset`` iteration order is a function of object
    hashes (and, for strings, of ``PYTHONHASHSEED``), and directory
    scans (``Path.glob``/``iterdir``, ``os.listdir``/``scandir``)
    follow filesystem order.  Inside ``core/``, ``ir/``,
    ``baselines/`` and ``io/`` -- the modules whose outputs are
    byte-compared by the parity sweep -- any iteration order that
    reaches a result must come from ``sorted(...)`` or an
    insertion-ordered container (``dict`` is exempt for exactly that
    reason).

    Flagged sinks over a set-typed or scan-ordered expression:
    ``for``/``async for`` and comprehension iteration, ``list()`` /
    ``tuple()`` / ``iter()`` / ``enumerate()`` / ``map()`` /
    ``filter()`` / ``zip()`` / ``reversed()`` conversion,
    ``str.join``, ``*``-unpacking, and ``set.pop()`` (removes an
    *arbitrary* element).  Order-insensitive consumers (``len``,
    ``sum``, ``min``, ``max``, ``any``, ``all``, ``sorted``, ``set``,
    ``frozenset``, membership tests) are fine.

    The inference is per-scope and syntactic: literals, ``set()`` /
    ``frozenset()`` calls, set operators between known sets, set
    methods returning sets, plain assignments of those, and
    ``self.X`` attributes that are *only ever* assigned set-valued
    expressions in their class.

    It is also **interprocedural** through the bounded call graph
    (:mod:`repro.devtools.passaudit`): a call expression is set-like
    when the resolved helper *returns* unordered content -- either
    unconditionally (``return {a for a in ...}``) or because a
    set-like argument at this call site binds to a parameter whose
    order taints the return value (``return list(pool)``,
    ``return [x for x in pool]``).  ``sorted(...)`` inside the helper
    breaks the taint, exactly as it does locally, and the helper
    itself is never flagged for what its callers pass it.  A genuinely
    order-irrelevant iteration (e.g. feeding a commutative reduction
    the rule cannot see through) takes
    ``# reprolint: disable=RL001(reason)``.
    """

    code = "RL001"
    name = "unordered-iteration"
    contract = "parity: canonical results never depend on hash/fs order"
    scope = CANONICAL_SCOPE

    _FACTORIES = {"set", "frozenset"}
    _SCAN_CALLS = {"os.listdir", "os.scandir"}
    _SCAN_METHODS = {"glob", "rglob", "iterdir"}
    _SET_METHODS = {
        "union", "intersection", "difference", "symmetric_difference", "copy",
    }
    _SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    _ITER_SINKS = {
        "list", "tuple", "iter", "enumerate", "map", "filter", "zip",
        "reversed",
    }
    _ORDER_SAFE = {
        "sorted", "len", "sum", "min", "max", "any", "all", "set",
        "frozenset",
    }

    def check_project(
        self, modules: Sequence[ModuleSource]
    ) -> Iterable[Finding]:
        # All the work happens here (not per-module) because the
        # order-taint summaries need every in-scope module at once.
        findings: List[Finding] = []
        per_module_attrs = {
            id(module): self._class_set_attrs(module.tree)
            for module in modules
        }

        def class_set_attrs(cls: ClassInfo) -> Set[str]:
            attrs = per_module_attrs.get(id(cls.module), {})
            return attrs.get(cls.node, set())

        taint = OrderTaint(
            CallGraph(list(modules)), self._taint_config(), class_set_attrs,
        )
        for module in modules:
            class_attrs = per_module_attrs[id(module)]
            self._check_scope(module, module.tree, {}, None, class_attrs,
                              findings, taint, None)
            for function, owner in _function_scopes(module.tree):
                attrs = class_attrs.get(owner, set()) if owner else set()
                self._check_scope(module, function, {}, attrs, class_attrs,
                                  findings, taint, owner)
        return findings

    @classmethod
    def _taint_config(cls) -> TaintConfig:
        """Hand the rule's set-likeness vocabulary to the taint layer
        so the two analyses can never drift apart."""
        return TaintConfig(
            factories=frozenset(cls._FACTORIES),
            scan_calls=frozenset(cls._SCAN_CALLS),
            scan_methods=frozenset(cls._SCAN_METHODS),
            set_methods=frozenset(cls._SET_METHODS),
            set_ops=tuple(cls._SET_OPS),
            iter_sinks=frozenset(cls._ITER_SINKS),
            order_safe=frozenset(cls._ORDER_SAFE),
        )

    # -- set-typed inference -------------------------------------------
    def _class_set_attrs(
        self, tree: ast.Module
    ) -> Dict[ast.ClassDef, Set[str]]:
        """Per class: ``self.X`` attrs only ever assigned set values."""
        result: Dict[ast.ClassDef, Set[str]] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            always: Dict[str, bool] = {}
            for sub in ast.walk(node):
                if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    sub.targets if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        is_set = sub.value is not None and self._is_setlike(
                            sub.value, {}, set()
                        )
                        prior = always.get(target.attr)
                        always[target.attr] = (
                            is_set if prior is None else (prior and is_set)
                        )
            result[node] = {attr for attr, ok in always.items() if ok}
        return result

    def _is_setlike(
        self,
        node: ast.AST,
        env: Dict[str, bool],
        self_attrs: Set[str],
        call_taint: Optional[Callable[[ast.Call], bool]] = None,
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return env.get(node.id, False)
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self_attrs
            )
        if isinstance(node, ast.Call):
            qual = _qualname(node.func)
            if qual in self._FACTORIES or qual in self._SCAN_CALLS:
                return True
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in self._SCAN_METHODS:
                    return True
                if node.func.attr in self._SET_METHODS:
                    return self._is_setlike(node.func.value, env, self_attrs,
                                            call_taint)
            if call_taint is not None and call_taint(node):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_OPS):
            return (
                self._is_setlike(node.left, env, self_attrs, call_taint)
                or self._is_setlike(node.right, env, self_attrs, call_taint)
            )
        if isinstance(node, ast.IfExp):
            return (
                self._is_setlike(node.body, env, self_attrs, call_taint)
                or self._is_setlike(node.orelse, env, self_attrs, call_taint)
            )
        return False

    # -- the per-scope checker -----------------------------------------
    def _check_scope(
        self,
        module: ModuleSource,
        scope: ast.AST,
        env: Dict[str, bool],
        self_attrs: Optional[Set[str]],
        class_attrs: Dict[ast.ClassDef, Set[str]],
        findings: List[Finding],
        taint: Optional[OrderTaint] = None,
        owner: Optional[ast.ClassDef] = None,
    ) -> None:
        attrs = self_attrs or set()
        modname = module_name(module)
        # Comprehensions handed *directly* to an order-insensitive
        # consumer (``sorted(n for n in pending if ...)``) are exempt:
        # the consumer erases the iteration order.  Outer calls are
        # processed before their argument comprehensions (source
        # order), so the exemption is in place in time.
        exempt: Set[int] = set()

        def call_taint(call: ast.Call) -> bool:
            if taint is None:
                return False
            return taint.call_dangerous(modname, owner, call, setlike)

        def setlike(node: ast.AST) -> bool:
            return self._is_setlike(node, env, attrs, call_taint)

        def bind_target(target: ast.AST, value_setlike: bool) -> None:
            if isinstance(target, ast.Name):
                env[target.id] = value_setlike
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    bind_target(element, False)

        def flag(node: ast.AST, what: str) -> None:
            findings.append(module.finding(
                self.code, node,
                f"{what} -- hash/filesystem order reaches canonical "
                f"results; sort first or use an ordered container",
            ))

        def handle(node: ast.AST) -> None:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if setlike(node.iter):
                    flag(node, "iteration over an unordered container")
                bind_target(node.target, False)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp, ast.SetComp)):
                if id(node) in exempt:
                    return
                for generator in node.generators:
                    if setlike(generator.iter):
                        flag(generator.iter,
                             "comprehension over an unordered container")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in self._ORDER_SAFE:
                    for arg in node.args:
                        if isinstance(arg, (ast.ListComp, ast.GeneratorExp,
                                            ast.SetComp, ast.DictComp)):
                            exempt.add(id(arg))
                if (
                    isinstance(func, ast.Name)
                    and func.id in self._ITER_SINKS
                    and any(setlike(arg) for arg in node.args)
                ):
                    flag(node, f"{func.id}() materialises an unordered "
                               f"container in arbitrary order")
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "join"
                    and any(setlike(arg) for arg in node.args)
                ):
                    flag(node, "join() over an unordered container")
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "pop"
                    and not node.args
                    and setlike(func.value)
                ):
                    flag(node, "set.pop() removes an arbitrary element")
            elif isinstance(node, ast.Starred) and setlike(node.value):
                flag(node, "*-unpacking an unordered container")
            elif isinstance(node, ast.Assign):
                value_setlike = setlike(node.value)
                for target in node.targets:
                    bind_target(target, value_setlike)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                bind_target(node.target, setlike(node.value))
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    keeps = isinstance(node.op, self._SET_OPS)
                    env[node.target.id] = (
                        env.get(node.target.id, False) and keeps
                    ) or (keeps and setlike(node.value))

        # Statements in source order so assignments precede uses; the
        # walker stays out of nested function/class scopes.
        for node in sorted(
            _walk_scope(scope),
            key=lambda n: (getattr(n, "lineno", 0),
                           getattr(n, "col_offset", 0)),
        ):
            handle(node)


# ======================================================================
# RL002 -- determinism: nondeterministic inputs
# ======================================================================
@register_rule
class NondeterministicInputRule(LintRule):
    """RL002 nondeterministic inputs: no wall clock, RNG or process
    identity on canonical-result paths.

    Two runs of the same ``Problem`` must produce byte-identical
    canonical envelopes (the parity sweep diffs them), so inside
    ``core/``, ``ir/``, ``baselines/`` and ``io/`` nothing may read
    ``time.*`` clocks, ``datetime.now``/``utcnow``, ``random.*`` /
    ``numpy.random.*`` without an explicit seed, ``os.urandom`` /
    ``uuid`` / ``secrets``, or ``id()`` (CPython addresses differ per
    process -- an ``id()``-keyed dict iterates differently run to
    run).

    Explicitly seeded constructions are allowed as written:
    ``random.Random(seed)``, ``random.seed(seed)`` and
    ``numpy.random.default_rng(seed)`` with at least one argument.
    Anything intentional (e.g. a timing field that is documented as
    non-canonical) takes ``# reprolint: disable=RL002(reason)``.
    Timing/telemetry belongs in the engine envelope layer, which is
    deliberately outside this rule's scope.
    """

    code = "RL002"
    name = "nondeterministic-input"
    contract = "parity: same problem in, byte-identical canonical bytes out"
    scope = CANONICAL_SCOPE

    _BANNED = {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "datetime.now", "datetime.utcnow", "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "os.urandom", "os.getrandom",
        "uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5",
    }
    _BANNED_PREFIXES = ("random.", "secrets.", "np.random.", "numpy.random.")
    _SEEDED_OK = {
        "random.Random", "random.seed",
        "np.random.default_rng", "numpy.random.default_rng",
        "np.random.RandomState", "numpy.random.RandomState",
    }

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = _qualname(node.func)
            if qual is None:
                continue
            if qual == "id":
                findings.append(module.finding(
                    self.code, node,
                    "id() is a per-process address -- never stable across "
                    "runs; key on a content fingerprint instead",
                ))
                continue
            if qual in self._SEEDED_OK and node.args:
                continue  # explicitly seeded: deterministic as written
            if qual in self._BANNED or qual.startswith(self._BANNED_PREFIXES):
                findings.append(module.finding(
                    self.code, node,
                    f"{qual}() is nondeterministic input on a "
                    f"canonical-result path; thread a seed/timestamp in "
                    f"from the caller",
                ))
        return findings


# ======================================================================
# RL003 -- lock discipline
# ======================================================================
@register_rule
class LockDisciplineRule(LintRule):
    """RL003 lock discipline: guarded state is only touched under
    ``self._lock``.

    Applies to every class that declares a ``self._lock`` (or
    class-level ``_lock``) attribute -- the repo convention for
    "instances are shared across threads" (``ResultCache`` is the
    archetype; the service tier hits one instance from many
    requests).  *Guarded* attributes are those the class mutates
    outside ``__init__``; attributes assigned only in ``__init__``
    are construction-time configuration and stay free.

    Every public method (no leading underscore; underscore-prefixed
    helpers are by convention called with the lock already held) that
    reads or writes a guarded attribute must do so inside a
    ``with self._lock:`` block.  Accesses outside one are findings.
    A deliberately lock-free fast path takes
    ``# reprolint: disable=RL003(reason)`` stating the safety
    argument (e.g. "read of a monotonic counter, staleness is fine").
    """

    code = "RL003"
    name = "lock-discipline"
    contract = "concurrency: shared mutable state only under self._lock"
    scope = ()

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(module, node, findings)
        return findings

    def _check_class(
        self, module: ModuleSource, classdef: ast.ClassDef,
        findings: List[Finding],
    ) -> None:
        if not self._declares_lock(classdef):
            return
        guarded = self._guarded_attrs(classdef)
        if not guarded:
            return
        for item in classdef.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name.startswith("_"):
                continue  # helpers run with the lock already held
            if any(
                isinstance(d, ast.Name) and d.id in ("staticmethod",
                                                     "classmethod")
                for d in item.decorator_list
            ):
                continue
            covered = self._covered_nodes(item)
            reported: Set[str] = set()
            for sub in ast.walk(item):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and sub.attr in guarded
                    and id(sub) not in covered
                    and sub.attr not in reported
                ):
                    reported.add(sub.attr)
                    findings.append(module.finding(
                        self.code, sub,
                        f"{classdef.name}.{item.name}() touches guarded "
                        f"attribute self.{sub.attr} outside 'with "
                        f"self._lock' ({classdef.name} declares _lock)",
                    ))

    @staticmethod
    def _declares_lock(classdef: ast.ClassDef) -> bool:
        for node in ast.walk(classdef):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr == "_lock"
                    ):
                        return True
                    if isinstance(target, ast.Name) and target.id == "_lock":
                        return True
        return False

    @staticmethod
    def _guarded_attrs(classdef: ast.ClassDef) -> Set[str]:
        """Attributes mutated outside ``__init__``/``__new__``."""
        guarded: Set[str] = set()
        for item in classdef.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in ("__init__", "__new__"):
                continue
            for node in ast.walk(item):
                target = None
                if isinstance(node, (ast.Assign,)):
                    for t in node.targets:
                        if isinstance(t, ast.Attribute):
                            target = t
                            _collect_self_attr(target, guarded)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    if isinstance(node.target, ast.Attribute):
                        _collect_self_attr(node.target, guarded)
                elif isinstance(node, ast.Delete):
                    for t in node.targets:
                        if isinstance(t, ast.Attribute):
                            _collect_self_attr(t, guarded)
        guarded.discard("_lock")
        return guarded

    @staticmethod
    def _covered_nodes(function: ast.AST) -> Set[int]:
        """ids of AST nodes lexically inside a ``with self._lock``."""
        covered: Set[int] = set()
        for node in ast.walk(function):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            holds_lock = any(
                isinstance(item.context_expr, ast.Attribute)
                and item.context_expr.attr == "_lock"
                and isinstance(item.context_expr.value, ast.Name)
                and item.context_expr.value.id == "self"
                for item in node.items
            )
            if not holds_lock:
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    covered.add(id(sub))
        return covered


def _collect_self_attr(attribute: ast.Attribute, into: Set[str]) -> None:
    if (
        isinstance(attribute.value, ast.Name)
        and attribute.value.id == "self"
    ):
        into.add(attribute.attr)


# ======================================================================
# RL004 -- async hygiene
# ======================================================================
@register_rule
class AsyncBlockingRule(LintRule):
    """RL004 async hygiene: coroutine bodies in ``service/`` never
    block the event loop.

    The service promises non-blocking operation (``AsyncEngine``
    offloads every solve to a worker thread; ``/stats`` offloads the
    cache directory scan), so a synchronous call inside an ``async def`` in
    ``repro/service/`` stalls *every* connection, not one request.

    Flagged when called (not awaited, not inside a nested ``def`` --
    nested sync functions are executor targets by construction):
    ``time.sleep``, ``open()``/``input()``, ``Path.read_text`` /
    ``write_text`` / ``read_bytes`` / ``write_bytes``,
    ``subprocess.run/call/check_call/check_output/Popen``,
    ``os.system``/``os.popen``, ``urllib.request.urlopen``,
    ``socket.create_connection``, and synchronous engine entry points
    (``<...>engine.run`` / ``run_batch`` / ``run_many``) -- route
    those through ``AsyncEngine`` or ``loop.run_in_executor``.  A call
    that is provably bounded takes
    ``# reprolint: disable=RL004(reason)``.
    """

    code = "RL004"
    name = "blocking-in-async"
    contract = "concurrency: the service event loop never blocks"
    scope = ("service",)

    _BLOCKING_QUAL = {
        "time.sleep", "os.system", "os.popen",
        "subprocess.run", "subprocess.call", "subprocess.check_call",
        "subprocess.check_output", "subprocess.Popen",
        "urllib.request.urlopen", "socket.create_connection",
    }
    _BLOCKING_NAMES = {"open", "input"}
    _BLOCKING_METHODS = {
        "read_text", "write_text", "read_bytes", "write_bytes",
    }
    _ENGINE_METHODS = {"run", "run_batch", "run_many"}

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        for function, _owner in _function_scopes(module.tree):
            if not isinstance(function, ast.AsyncFunctionDef):
                continue
            awaited = {
                id(node.value)
                for node in _walk_scope(function)
                if isinstance(node, ast.Await)
            }
            for node in _walk_scope(function):
                if isinstance(node, ast.Call) and id(node) not in awaited:
                    self._check_call(module, function, node, findings)
        return findings

    def _check_call(
        self, module: ModuleSource, function: ast.AsyncFunctionDef,
        node: ast.Call, findings: List[Finding],
    ) -> None:
        qual = _qualname(node.func)

        def flag(why: str) -> None:
            findings.append(module.finding(
                self.code, node,
                f"{why} inside 'async def {function.name}' blocks the "
                f"event loop; await it via AsyncEngine / "
                f"loop.run_in_executor",
            ))

        if qual in self._BLOCKING_QUAL:
            flag(f"blocking call {qual}()")
        elif isinstance(node.func, ast.Name) and (
            node.func.id in self._BLOCKING_NAMES
        ):
            flag(f"synchronous {node.func.id}()")
        elif isinstance(node.func, ast.Attribute):
            if node.func.attr in self._BLOCKING_METHODS:
                flag(f"synchronous file I/O .{node.func.attr}()")
            elif node.func.attr in self._ENGINE_METHODS:
                receiver = _qualname(node.func.value) or ""
                if receiver.split(".")[-1].lower().endswith("engine"):
                    flag(
                        f"synchronous engine call "
                        f"{receiver}.{node.func.attr}()"
                    )


# ======================================================================
# RL005 -- registry / envelope hygiene
# ======================================================================
@register_rule
class RegistryHygieneRule(LintRule):
    """RL005 registry hygiene: allocator registrations stay auditable
    and envelope-shaped.

    ``@register_allocator(name)`` is the extension surface every
    consumer (CLI ``--method``, experiments, the service) discovers
    strategies through, so registration sites must be statically
    auditable:

    * the name must be a **string literal** (a computed name defeats
      collision auditing and spawn-safe re-registration);
    * one name, one strategy: duplicate literal names across the
      scanned tree are flagged at every site after the first
      (at runtime the second registration raises -- but only on the
      import order that happens to load both);
    * the strategy must actually produce a result the engine can wrap
      into an ``AllocationResult`` envelope: a function body with no
      ``return <value>`` is flagged, and an explicit return annotation
      must mention ``Datapath``, ``Tuple``/``tuple`` (the
      ``(Datapath, extras)`` convention) or ``AllocationResult``.
    """

    code = "RL005"
    name = "registry-hygiene"
    contract = "registry: one literal name per strategy, envelope-shaped"
    scope = ()

    _DECORATOR = "register_allocator"
    _RETURN_OK = ("Datapath", "AllocationResult", "Tuple", "tuple")

    def check_project(
        self, modules: Sequence[ModuleSource]
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        seen: Dict[str, Tuple[str, int]] = {}  # name -> first site
        for module in modules:
            for node in ast.walk(module.tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                for decorator in node.decorator_list:
                    call = self._registration(decorator)
                    if call is None:
                        continue
                    self._check_site(module, node, call, seen, findings)
        return findings

    def _registration(self, decorator: ast.AST) -> Optional[ast.Call]:
        if isinstance(decorator, ast.Call):
            qual = _qualname(decorator.func) or ""
            if qual.split(".")[-1] == self._DECORATOR:
                return decorator
        return None

    def _check_site(
        self,
        module: ModuleSource,
        node: ast.AST,
        call: ast.Call,
        seen: Dict[str, Tuple[str, int]],
        findings: List[Finding],
    ) -> None:
        name_node = call.args[0] if call.args else None
        if not (
            isinstance(name_node, ast.Constant)
            and isinstance(name_node.value, str)
        ):
            findings.append(module.finding(
                self.code, call,
                "register_allocator() name must be a string literal so "
                "collisions are statically auditable",
            ))
        else:
            name = name_node.value
            first = seen.get(name)
            if first is not None:
                findings.append(module.finding(
                    self.code, call,
                    f"allocator name {name!r} already registered at "
                    f"{first[0]}:{first[1]}",
                ))
            else:
                seen[name] = (module.display, call.lineno)

        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotation = ast.dump(node.returns)
                if not any(ok in annotation for ok in self._RETURN_OK):
                    findings.append(module.finding(
                        self.code, node.returns,
                        f"allocator {node.name}() return annotation must "
                        f"be Datapath, (Datapath, extras) or "
                        f"AllocationResult",
                    ))
            has_value_return = any(
                isinstance(sub, ast.Return) and sub.value is not None
                for sub in _walk_scope(node)
            )
            if not has_value_return:
                findings.append(module.finding(
                    self.code, node,
                    f"allocator {node.name}() never returns a value -- "
                    f"the engine cannot build an AllocationResult "
                    f"envelope from None",
                ))
