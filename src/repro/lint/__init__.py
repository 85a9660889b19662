"""Static analysis for the repro codebase.

An AST rule engine (:mod:`.core`, :mod:`.rules`, :mod:`.project`)
enforcing the repo's invariants: determinism, the :mod:`repro.errors`
exception taxonomy, import layering, hygiene (mutable defaults, debug
prints, docstrings, unused imports). Run it with ``python -m
repro.lint``; suppress a finding in place with a
``# lint: ignore[rule-id]`` comment on the offending line. The query
plan checkers live beside what they check, in
:mod:`repro.storage.relational.plancheck` and :mod:`repro.qa.plan`.

See ``docs/static_analysis.md`` for the rule catalogue.
"""

from .core import Finding, LintEngine, ModuleInfo, Rule, all_rules, rule_ids
from . import project, rules  # noqa: F401  (rule registration side effect)

__all__ = [
    "Finding", "LintEngine", "ModuleInfo", "Rule", "all_rules",
    "rule_ids",
]
