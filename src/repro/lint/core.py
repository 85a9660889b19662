"""Rule engine: findings, registry, suppressions, module loading.

A :class:`Rule` inspects one module's AST (``scope = "module"``) or the
whole module set at once (``scope = "project"``, e.g. import-cycle
detection) and yields :class:`Finding` objects. Findings on a line
carrying a ``# lint: ignore[rule-id]`` (or blanket ``# lint: ignore``)
pragma are dropped before reporting.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional

_PRAGMA = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<rules>[a-z0-9_\-, ]+)\])?"
)

#: Sentinel rule-set meaning "suppress every rule on this line".
ALL_RULES: FrozenSet[str] = frozenset(["*"])


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where it is, which rule fired, and why."""

    path: str  # posix path relative to the linted package root
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """One-line ``path:line: [rule] message`` form."""
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)

    def sort_key(self):
        """Deterministic report ordering."""
        return (self.path, self.line, self.rule, self.message)


@dataclass
class ModuleInfo:
    """A parsed source module plus the metadata rules need."""

    path: pathlib.Path
    relpath: str  # e.g. "storage/relational/planner.py"
    source: str
    tree: ast.Module
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @property
    def unit(self) -> str:
        """Top-level unit under the package root (layering granularity):
        subpackage name for nested modules, module stem for flat files."""
        head = self.relpath.split("/", 1)[0]
        return head[:-3] if head.endswith(".py") else head

    @property
    def module_name(self) -> str:
        """Dotted module path relative to the package root, without the
        package prefix (``storage.relational.planner``)."""
        parts = self.relpath[:-3].split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1] or ["__init__"]
        return ".".join(parts)

    def finding(self, node, rule: str, message: str) -> Finding:
        """Build a :class:`Finding` anchored at *node* (or a line int)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(self.relpath, line, rule, message)


def parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Per-line ``# lint: ignore[...]`` pragmas, 1-indexed."""
    out: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if match is None:
            continue
        listed = match.group("rules")
        if listed is None:
            out[lineno] = ALL_RULES
        else:
            out[lineno] = frozenset(
                part.strip() for part in listed.split(",") if part.strip()
            )
    return out


def load_module(path: pathlib.Path, root: pathlib.Path) -> ModuleInfo:
    """Read and parse one source file (raises ``SyntaxError`` as-is)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleInfo(
        path=path,
        relpath=path.relative_to(root).as_posix(),
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
    )


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` (kebab-case, used in reports and pragmas),
    ``summary`` (one line for ``--list-rules``) and ``scope``, then
    implement :meth:`check` (module scope) or :meth:`check_project`.
    """

    id: str = ""
    summary: str = ""
    scope: str = "module"  # or "project"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for one module (module-scope rules)."""
        return iter(())

    def check_project(
        self, modules: List[ModuleInfo]
    ) -> Iterator[Finding]:
        """Yield findings needing the whole module set (project scope)."""
        return iter(())


_RULES: Dict[str, Rule] = {}  # lint: ignore[module-state]


def register(rule_cls):
    """Class decorator adding a rule instance to the global registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError("rule %r has no id" % rule_cls.__name__)
    if rule.id in _RULES:
        raise ValueError("duplicate rule id %r" % rule.id)
    _RULES[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Registered rules, sorted by id."""
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def rule_ids() -> List[str]:
    """Sorted ids of all registered rules."""
    return sorted(_RULES)


class LintEngine:
    """Run a rule set over a package tree and collect findings."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None):
        self._rules = list(rules) if rules is not None else all_rules()

    def lint_modules(self, modules: List[ModuleInfo]) -> List[Finding]:
        """All non-suppressed findings over *modules*, sorted."""
        findings: List[Finding] = []
        by_path = {module.relpath: module for module in modules}
        for rule in self._rules:
            if rule.scope == "project":
                findings.extend(rule.check_project(modules))
            else:
                for module in modules:
                    findings.extend(rule.check(module))
        kept = [
            finding for finding in findings
            if not _suppressed(finding, by_path.get(finding.path))
        ]
        kept.sort(key=Finding.sort_key)
        return kept

    def lint_tree(self, root: pathlib.Path) -> List[Finding]:
        """Lint every ``*.py`` under *root* (a package directory)."""
        modules: List[ModuleInfo] = []
        findings: List[Finding] = []
        for path in sorted(root.rglob("*.py")):
            try:
                modules.append(load_module(path, root))
            except SyntaxError as exc:
                findings.append(Finding(
                    path.relative_to(root).as_posix(),
                    exc.lineno or 1, "parse-error",
                    "file does not parse: %s" % exc.msg,
                ))
        findings.extend(self.lint_modules(modules))
        findings.sort(key=Finding.sort_key)
        return findings

    def lint_source(self, source: str,
                    relpath: str = "snippet.py") -> List[Finding]:
        """Lint one in-memory source snippet (rule unit tests)."""
        tree = ast.parse(source)
        module = ModuleInfo(
            path=pathlib.Path(relpath), relpath=relpath, source=source,
            tree=tree, suppressions=parse_suppressions(source),
        )
        return self.lint_modules([module])


def _suppressed(finding: Finding, module: Optional[ModuleInfo]) -> bool:
    if module is None:
        return False
    rules = module.suppressions.get(finding.line)
    if rules is None:
        return False
    return rules == ALL_RULES or finding.rule in rules
