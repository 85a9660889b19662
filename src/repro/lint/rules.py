"""Module-scope lint rules enforcing the repo's invariants.

Each rule documents the invariant it guards; ``docs/static_analysis.md``
carries the full catalogue with rationale and examples. Rules operate
on one module's AST and never import the code under analysis.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .core import Finding, ModuleInfo, Rule, register

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local binding name -> dotted origin for every import.

    ``import datetime as _dt`` binds ``_dt -> datetime``; ``from time
    import perf_counter`` binds ``perf_counter -> time.perf_counter``.
    Relative imports are ignored (they stay inside the package).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[bound] = origin
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = "%s.%s" % (node.module, alias.name)
    return aliases


def _dotted_path(func: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a call target to a dotted origin path, or None."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = aliases.get(node.id)
    if origin is None:
        return None
    parts.append(origin)
    return ".".join(reversed(parts))


def _used_names(tree: ast.AST) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
    return used


def _imported_bindings(node) -> List[str]:
    """Binding names introduced by one import statement."""
    names: List[str] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            names.append(alias.asname or alias.name.split(".")[0])
    elif isinstance(node, ast.ImportFrom):
        if node.module == "__future__":
            return []
        for alias in node.names:
            if alias.name == "*":
                continue
            names.append(alias.asname or alias.name)
    return names


def _is_entry_point(module: ModuleInfo) -> bool:
    """Application-layer modules free to import across layers."""
    rel = module.relpath
    return (
        rel in ("cli.py", "__init__.py")
        or rel.startswith("bench/")
    )


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

# Wall-clock and entropy sources that make answers non-reproducible.
# Monotonic interval clocks (time.perf_counter/monotonic) stay legal:
# they measure durations, never influence results.
_FORBIDDEN_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.ctime": "wall-clock read",
    "time.localtime": "wall-clock read",
    "time.gmtime": "wall-clock read",
    "time.strftime": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy source",
    "os.getrandom": "OS entropy source",
    "uuid.uuid1": "non-deterministic id",
    "uuid.uuid4": "non-deterministic id",
    "random.SystemRandom": "OS entropy source",
}

# Constructors that are fine when seeded, forbidden bare.
_SEEDED_CONSTRUCTORS = ("random.Random", "numpy.random.default_rng")


@register
class DeterminismRule(Rule):
    """No wall-clock time or unseeded randomness in library code.

    The paper's contract is byte-reproducible answers for a fixed seed;
    any ambient entropy breaks it. ``bench/`` and ``cli.py`` are
    application entry points and exempt.
    """

    id = "determinism"
    summary = ("forbid wall-clock reads and unseeded RNGs outside "
               "bench/cli entry points")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if _is_entry_point(module):
            return
        aliases = _import_aliases(module.tree)
        call_funcs = {
            id(node.func) for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                # A forbidden callable passed around uncalled (e.g.
                # ``stamp = time.time``) defers the entropy read to
                # whoever invokes the reference -- just as
                # non-deterministic, and invisible to the Call check.
                if id(node) in call_funcs or not isinstance(
                        node.ctx, ast.Load):
                    continue
                path = _dotted_path(node, aliases)
                reason = _FORBIDDEN_CALLS.get(path) if path else None
                if reason is not None:
                    yield module.finding(
                        node, self.id,
                        "%s is a %s; referencing it uncalled still "
                        "defers non-determinism to the caller"
                        % (path, reason),
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            path = _dotted_path(node.func, aliases)
            if path is None:
                continue
            reason = _FORBIDDEN_CALLS.get(path)
            if reason is None and path.startswith("secrets."):
                reason = "OS entropy source"
            if reason is not None:
                yield module.finding(
                    node, self.id,
                    "%s() is a %s; library results must be "
                    "deterministic" % (path, reason),
                )
                continue
            if path in _SEEDED_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield module.finding(
                        node, self.id,
                        "%s() without a seed is non-deterministic; "
                        "pass an explicit seed" % path,
                    )
            elif path.startswith("random.") or path.startswith(
                    "numpy.random."):
                # Module-level convenience functions draw from the
                # hidden global generator -- unseedable per call site.
                yield module.finding(
                    node, self.id,
                    "%s() uses the shared global RNG; construct a "
                    "seeded random.Random/default_rng instead" % path,
                )


# ----------------------------------------------------------------------
# Exception hygiene
# ----------------------------------------------------------------------

# Builtin exceptions acceptable for programmer-error guard clauses.
# Domain failures must use the repro.errors taxonomy so callers can
# catch ReproError at API boundaries.
_ALLOWED_BUILTIN_RAISES = {
    "ValueError", "TypeError", "KeyError", "IndexError", "AttributeError",
    "RuntimeError", "NotImplementedError", "StopIteration",
    "ZeroDivisionError", "SystemExit",
}


def _raised_name(node: ast.Raise) -> Optional[str]:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    return None


def _is_builtin_exception(name: str) -> bool:
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


@register
class ExceptionHygieneRule(Rule):
    """No bare excepts, no generic raises outside the error taxonomy.

    Library failures must be expressible as :class:`repro.errors.
    ReproError` subclasses (or the small builtin guard-clause set), and
    handlers must never silently swallow everything.
    """

    id = "exception-hygiene"
    summary = ("forbid bare except, silent except-Exception-pass, and "
               "raises outside the repro.errors taxonomy")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(module, node)
            elif isinstance(node, ast.Raise):
                yield from self._check_raise(module, node)

    def _check_handler(self, module, node) -> Iterator[Finding]:
        if node.type is None:
            yield module.finding(
                node, self.id,
                "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                "name the exception types",
            )
            return
        names = []
        targets = (node.type.elts if isinstance(node.type, ast.Tuple)
                   else [node.type])
        for target in targets:
            if isinstance(target, ast.Name):
                names.append(target.id)
        if any(n in ("Exception", "BaseException") for n in names):
            if all(isinstance(stmt, (ast.Pass, ast.Continue))
                   for stmt in node.body):
                yield module.finding(
                    node, self.id,
                    "'except %s' that only passes swallows every error "
                    "silently; handle or re-raise" % names[0],
                )

    def _check_raise(self, module, node) -> Iterator[Finding]:
        name = _raised_name(node)
        if name is None:
            return
        if name in ("Exception", "BaseException"):
            yield module.finding(
                node, self.id,
                "raise %s is untypable for callers; use a "
                "repro.errors taxonomy class" % name,
            )
        elif (_is_builtin_exception(name)
              and name not in _ALLOWED_BUILTIN_RAISES):
            yield module.finding(
                node, self.id,
                "raise %s bypasses the repro.errors taxonomy; use a "
                "ReproError subclass (or ValueError/TypeError for "
                "guard clauses)" % name,
            )


@register
class FaultAbsorptionRule(Rule):
    """Only ``repro.resilience`` may absorb the error taxonomy.

    A broad handler (``except Exception``/``except BaseException``/bare
    ``except``) that never re-raises swallows :class:`repro.errors.
    ReproError` — it silently eats the very faults the resilience layer
    is designed to record, retry and degrade on. Outside ``resilience/``,
    callers must route risky calls through
    :meth:`~repro.resilience.ResilienceManager.try_call` /
    :meth:`~repro.resilience.ResilienceManager.shield` instead.
    """

    id = "fault-absorption"
    summary = ("forbid broad except clauses that swallow ReproError "
               "outside repro.resilience")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.relpath.startswith("resilience/"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node)
            if broad is None:
                continue
            if not any(isinstance(inner, ast.Raise)
                       for stmt in node.body
                       for inner in ast.walk(stmt)):
                yield module.finding(
                    node, self.id,
                    "'except %s' without a re-raise absorbs ReproError; "
                    "route the call through repro.resilience "
                    "(try_call/shield) instead" % broad,
                )

    @staticmethod
    def _broad_name(node: ast.ExceptHandler) -> Optional[str]:
        """The over-broad type a handler catches, or None when typed."""
        if node.type is None:
            return ":"
        targets = (node.type.elts if isinstance(node.type, ast.Tuple)
                   else [node.type])
        for target in targets:
            if (isinstance(target, ast.Name)
                    and target.id in ("Exception", "BaseException")):
                return target.id
        return None


# ----------------------------------------------------------------------
# Import layering
# ----------------------------------------------------------------------

# Allowed dependencies per top-level unit (see docs/static_analysis.md
# for the layer diagram). obs is cross-cutting infrastructure: anything
# above the base layer may emit spans. qa is the integration
# layer; only entry points (bench/cli) sit above it.
_BASE = {"errors", "metering"}
_INFRA = _BASE | {"obs"}
_ALLOWED_DEPS: Dict[str, Set[str]] = {
    "errors": set(),
    "metering": set(),
    "caching": set(),
    "obs": set(_BASE),
    "text": {"errors"},
    "storage": _INFRA | {"text"},
    "slm": _INFRA | {"text", "caching"},
    "extraction": _INFRA | {"text", "slm", "storage"},
    "graphindex": _INFRA | {"text", "slm", "storage"},
    "entropy": _INFRA | {"text", "slm"},
    "retrieval": _INFRA | {"text", "slm", "graphindex"},
    "semql": _INFRA | {"text", "slm", "storage", "extraction"},
    "resilience": _INFRA,
    # tenancy is governance vocabulary: tenant specs, RLS rules, the
    # plan check and quota buckets. It sits just above storage (for
    # catalog awareness) and below the composition layers — only qa,
    # serving and loadgen may import it, and it must never reach up.
    "tenancy": _INFRA | {"storage"},
    "qa": _INFRA | {
        "text", "slm", "storage", "extraction", "graphindex",
        "entropy", "retrieval", "resilience", "semql", "tenancy",
    },
    "serving": _INFRA | {
        "caching", "text", "slm", "storage", "extraction", "graphindex",
        "entropy", "retrieval", "resilience", "semql", "qa", "tenancy",
    },
    # loadgen is the verification plane over serving: it drives the
    # whole stack (including bench lake construction) but nothing
    # below it may import it.
    "loadgen": _INFRA | {
        "caching", "text", "slm", "storage", "extraction", "graphindex",
        "entropy", "retrieval", "resilience", "semql", "qa", "serving",
        "bench", "tenancy",
    },
    # lint is the tooling plane: it imports no other unit, and nothing
    # imports it.
    "lint": set(),
}


def _resolve_relative(module: ModuleInfo,
                      node: ast.ImportFrom) -> Optional[str]:
    """Top-level unit a relative import lands in, or None for root."""
    pkg_parts = module.relpath.split("/")[:-1]
    drop = node.level - 1
    if drop > len(pkg_parts):
        return None
    base = pkg_parts[:len(pkg_parts) - drop] if drop else pkg_parts
    target = list(base)
    if node.module:
        target.extend(node.module.split("."))
    if target:
        return target[0]
    # "from . import name" at the package root: each name is a unit.
    return None


@register
class LayeringRule(Rule):
    """Subsystems may only import downward in the layer stack.

    ``storage``/``text``/``slm`` must never reach up into ``qa`` (or any
    higher layer); every unit's legal dependency set is declared in
    ``_ALLOWED_DEPS``. Entry points (``cli.py``, ``bench/``) and the
    public ``__init__`` facade are exempt.
    Lazy (function-level) imports count: they still couple layers.
    """

    id = "layering"
    summary = "enforce the declared inter-subpackage dependency DAG"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if _is_entry_point(module):
            return
        unit = module.unit
        allowed = _ALLOWED_DEPS.get(unit)
        for node, target in self._repro_imports(module):
            if target == unit:
                continue
            if allowed is None:
                yield module.finding(
                    node, self.id,
                    "unit %r has no declared layer; add it to "
                    "repro.lint.rules._ALLOWED_DEPS" % unit,
                )
                return
            if target not in allowed:
                yield module.finding(
                    node, self.id,
                    "%s must not import repro.%s (allowed: %s)"
                    % (unit, target, ", ".join(sorted(allowed)) or
                       "<nothing>"),
                )

    @staticmethod
    def _repro_imports(
        module: ModuleInfo
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.level > 0:
                    unit = _resolve_relative(module, node)
                    if unit is not None:
                        yield node, unit
                    elif node.module is None:
                        # from . import storage, qa -- at package root
                        for alias in node.names:
                            yield node, alias.name
                elif node.module and (
                    node.module == "repro"
                    or node.module.startswith("repro.")
                ):
                    parts = node.module.split(".")
                    if len(parts) > 1:
                        yield node, parts[1]
                    else:
                        for alias in node.names:
                            yield node, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro."):
                        yield node, alias.name.split(".")[1]


# ----------------------------------------------------------------------
# Hygiene: mutable defaults, prints, docstrings, unused imports
# ----------------------------------------------------------------------

@register
class MutableDefaultRule(Rule):
    """No mutable default argument values.

    A ``def f(x, acc=[])`` default is created once and shared across
    calls -- state leaks between invocations.
    """

    id = "mutable-default"
    summary = "forbid list/dict/set literals (or constructors) as defaults"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, _FUNCTION_NODES + (ast.Lambda,)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield module.finding(
                        default, self.id,
                        "mutable default argument in %s(); use None "
                        "and create inside the body" % name,
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set")
            and not node.args and not node.keywords
        )


# print() is part of the interface in these modules.
_PRINT_ALLOWED = {"cli.py", "bench/reporting.py", "lint/cli.py",
                  "loadgen/cli.py"}


@register
class NoPrintRule(Rule):
    """No stray debugging prints in library code.

    Reporting modules whose job is terminal output are allowlisted.
    """

    id = "no-print"
    summary = "forbid print() outside cli/reporting modules"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.relpath in _PRINT_ALLOWED:
            return
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                yield module.finding(
                    node, self.id,
                    "print() in library code; use the obs layer or "
                    "return the value",
                )


@register
class DocstringRule(Rule):
    """Modules and public top-level definitions carry docstrings.

    Subclass methods inherit their contract's docs, so only root
    classes (no bases) must document every public method.
    """

    id = "docstrings"
    summary = "require module + public def/class docstrings"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not ast.get_docstring(module.tree):
            yield module.finding(1, self.id, "module lacks a docstring")
        for node in module.tree.body:
            if isinstance(node, _FUNCTION_NODES + (ast.ClassDef,)):
                if node.name.startswith("_"):
                    continue
                if not ast.get_docstring(node):
                    yield module.finding(
                        node, self.id,
                        "public %r lacks a docstring" % node.name,
                    )
                if isinstance(node, ast.ClassDef) and not node.bases:
                    for item in node.body:
                        if (isinstance(item, _FUNCTION_NODES)
                                and not item.name.startswith("_")
                                and not ast.get_docstring(item)):
                            yield module.finding(
                                item, self.id,
                                "public method %s.%s lacks a docstring"
                                % (node.name, item.name),
                            )


@register
class UnusedImportRule(Rule):
    """No unused imports, at module level or inside functions.

    ``__init__.py`` re-export modules bind names intentionally and are
    skipped at module level.
    """

    id = "unused-import"
    summary = "forbid unused module-level and function-level imports"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.relpath.endswith("__init__.py"):
            used = _used_names(module.tree)
            for node in module.tree.body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for name in _imported_bindings(node):
                        if name not in used:
                            yield module.finding(
                                node, self.id,
                                "unused import %r" % name,
                            )
        for func in ast.walk(module.tree):
            if not isinstance(func, _FUNCTION_NODES):
                continue
            local_used = _used_names(func)
            for node in self._own_imports(func):
                for name in _imported_bindings(node):
                    if name not in local_used:
                        yield module.finding(
                            node, self.id,
                            "import %r unused within %s()"
                            % (name, func.name),
                        )

    @staticmethod
    def _own_imports(func: ast.AST) -> Iterator[ast.AST]:
        """Import statements in *func*'s body, not in nested functions."""
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, _FUNCTION_NODES + (ast.Lambda,)):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node
            else:
                stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# Engine dispatch
# ----------------------------------------------------------------------

# The only qa/ modules allowed to call the answer engines directly:
# the executor (which owns the guard path) and the engines themselves.
_DISPATCH_ALLOWED = {"qa/executor.py", "qa/tableqa.py", "qa/textqa.py"}

# Attribute names that look like an engine/retriever reference.
_ENGINE_RECEIVERS = {
    "table_qa", "text_qa", "retriever",
    "_table_qa", "_text_qa", "_retriever",
}


@register
class EngineDispatchRule(Rule):
    """Within ``qa/``, only the plan executor dispatches to engines.

    Since the federated-plan refactor, every ``TableQAEngine``/
    ``TextQAEngine``/retriever call on the answer path runs inside
    :class:`repro.qa.executor.PlanExecutor`, which owns the resilience
    guard (budget → breaker → fault → call), the obs span and the
    degradation bookkeeping per stage. A direct ``.answer()`` /
    ``.retrieve()`` on an engine reference elsewhere in ``qa/``
    silently bypasses all three — exactly the interleaved dispatch the
    plan IR removed.
    """

    id = "engine-dispatch"
    summary = ("forbid direct engine .answer()/.retrieve() calls in "
               "qa/ outside the plan executor")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if (not module.relpath.startswith("qa/")
                or module.relpath in _DISPATCH_ALLOWED):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (not isinstance(func, ast.Attribute)
                    or func.attr not in ("answer", "retrieve")):
                continue
            receiver = self._receiver_name(func.value)
            if receiver in _ENGINE_RECEIVERS:
                yield module.finding(
                    node, self.id,
                    "direct engine call %s.%s() bypasses the plan "
                    "executor's resilience guard and spans; dispatch "
                    "through repro.qa.executor.PlanExecutor"
                    % (receiver, func.attr),
                )

    @staticmethod
    def _receiver_name(node: ast.expr) -> Optional[str]:
        """The engine-ish name a call receiver ends in, if any."""
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Call):
            # text_qa().answer(...) -- provider-style access.
            return EngineDispatchRule._receiver_name(node.func)
        return None


# ----------------------------------------------------------------------
# Cross-request state
# ----------------------------------------------------------------------

# Mutating method names on the builtin containers (and their
# collections cousins). A call ``NAME.append(...)`` where NAME is a
# module-level container is a module-state write.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "appendleft",
    "extendleft", "sort", "reverse",
}

# Constructor names whose bare call builds a mutable container.
_CONTAINER_CONSTRUCTORS = {
    "list", "dict", "set", "OrderedDict", "defaultdict", "Counter",
    "deque",
}


@register
class ModuleStateRule(Rule):
    """No cross-request mutable module-level state outside ``serving/``.

    Serving made request lifetime a first-class concept: anything that
    survives one request and influences the next must live in an owned,
    bounded, invalidated cache tier — not in an ad-hoc module-level
    dict. This rule flags a module-level mutable container (list/dict/
    set literal or constructor) that any function in the same module
    mutates (method call, subscript write/delete, augmented assign, or
    a ``global`` rebind). The two sanctioned process-wide registries
    (the lint rule registry, the obs active-tracer cell) carry explicit
    ``# lint: ignore[module-state]`` pragmas.
    """

    id = "module-state"
    summary = ("forbid module-level mutable containers mutated from "
               "function bodies outside repro.serving")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if _is_entry_point(module) or module.relpath.startswith("serving/"):
            return
        containers = self._module_containers(module.tree)
        if not containers:
            return
        flagged: Set[str] = set()
        for func in ast.walk(module.tree):
            if not isinstance(func, _FUNCTION_NODES):
                continue
            local = self._local_bindings(func)
            declared_global = {
                name for node in ast.walk(func)
                if isinstance(node, ast.Global) for name in node.names
            }
            for name in self._mutated_names(func):
                if name not in containers or name in flagged:
                    continue
                if name in local and name not in declared_global:
                    continue  # a local shadows the module name
                flagged.add(name)
        for name in sorted(flagged):
            yield module.finding(
                containers[name], self.id,
                "module-level %r is mutated from a function body; "
                "cross-request state belongs in an owned cache/registry "
                "object (see repro.serving), not module globals" % name,
            )

    @staticmethod
    def _module_containers(tree: ast.Module) -> Dict[str, ast.stmt]:
        """Top-level names bound to a mutable container literal/call."""
        containers: Dict[str, ast.stmt] = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not ModuleStateRule._is_container(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    containers[target.id] = stmt
        return containers

    @staticmethod
    def _is_container(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                return func.attr in _CONTAINER_CONSTRUCTORS
            if isinstance(func, ast.Name):
                return func.id in _CONTAINER_CONSTRUCTORS
        return False

    @staticmethod
    def _local_bindings(func: ast.AST) -> Set[str]:
        """Names bound inside *func* (conservatively, nested scopes too)."""
        args = func.args
        bound: Set[str] = {
            a.arg for a in
            list(getattr(args, "posonlyargs", [])) + list(args.args)
            + list(args.kwonlyargs)
        }
        for special in (args.vararg, args.kwarg):
            if special is not None:
                bound.add(special.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bound.update(ModuleStateRule._target_names(target))
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
                bound.update(ModuleStateRule._target_names(node.target))
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    bound.update(
                        ModuleStateRule._target_names(node.optional_vars)
                    )
            elif isinstance(node, _FUNCTION_NODES + (ast.ClassDef,)):
                if node is not func:
                    bound.add(node.name)
        return bound

    @staticmethod
    def _target_names(target: ast.expr) -> Set[str]:
        names: Set[str] = set()
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                names.update(ModuleStateRule._target_names(element))
        return names

    @staticmethod
    def _mutated_names(func: ast.AST) -> Iterator[str]:
        """Names a statement in *func* mutates in place or rebinds."""
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                target = node.func
                if (isinstance(target, ast.Attribute)
                        and target.attr in _MUTATOR_METHODS
                        and isinstance(target.value, ast.Name)):
                    yield target.value.id
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)):
                        yield target.value.id
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)):
                        yield target.value.id
            elif isinstance(node, ast.Global):
                for name in node.names:
                    yield name


@register
class TenantStateRule(Rule):
    """No module-level mutable state in ``tenancy/`` at all.

    The tenancy contract is that governance is carried *per request* by
    an immutable :class:`~repro.tenancy.TenantContext` — there is no
    ambient "current tenant". Stricter than ``module-state`` (which
    requires an observed mutation): inside ``tenancy/`` merely *binding*
    a module-level mutable container is a finding, because any such
    cell is a place where cross-tenant state could accumulate.
    """

    id = "tenant-state"
    summary = ("forbid module-level mutable containers anywhere in "
               "repro.tenancy (tenant state is per-request, immutable)")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.relpath.startswith("tenancy/"):
            return
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not ModuleStateRule._is_container(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name) \
                        and not target.id.startswith("__"):
                    yield module.finding(
                        stmt, self.id,
                        "module-level %r is a mutable container; tenant "
                        "state must live in frozen per-request contexts "
                        "(tuples / frozen dataclasses), never module "
                        "globals" % target.id,
                    )
