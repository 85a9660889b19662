"""Source-hygiene checks, driven by the in-repo lint engine.

The rules themselves (unused imports, debug prints, docstrings,
determinism, exception hygiene, layering, import cycles, mutable
defaults) have exactly one implementation: :mod:`repro.lint`. This
suite runs that engine over ``src/repro`` and fails per-rule with the
offending findings, so CI output stays as pointed as the old ad-hoc
AST tests were.
"""

import ast
import pathlib

import pytest

from repro.lint import LintEngine, all_rules, rule_ids

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

_FINDINGS = LintEngine().lint_tree(SRC)


@pytest.mark.parametrize("rule_id", rule_ids())
def test_rule_is_clean(rule_id):
    offenders = [f for f in _FINDINGS if f.rule == rule_id]
    assert not offenders, "\n".join(f.render() for f in offenders)


def test_no_parse_errors():
    # lint_tree turns SyntaxError into synthetic "parse-error" findings
    # outside any registered rule; they must never appear.
    broken = [f for f in _FINDINGS if f.rule not in set(rule_ids())]
    assert not broken, "\n".join(f.render() for f in broken)


def test_every_rule_documented():
    for rule in all_rules():
        assert rule.id and rule.summary, rule
        assert rule.__doc__, "rule %s lacks a docstring" % rule.id


# ----------------------------------------------------------------------
# Python 3.9 compatibility: CI runs the suite on 3.9 as well. These
# checks catch the newer syntax and keywords on any interpreter.
# ----------------------------------------------------------------------
_ROOT = SRC.parent.parent
_PY_FILES = sorted(
    path for top in ("src", "tests", "benchmarks", "examples")
    for path in (_ROOT / top).rglob("*.py")
)
_TOO_NEW_KEYWORDS = {"dataclass": {"slots", "kw_only"}, "zip": {"strict"}}


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def test_every_file_parses_as_old_python():
    assert _PY_FILES
    broken = []
    for path in _PY_FILES:
        try:
            ast.parse(path.read_text(), filename=str(path),
                      feature_version=(3, 8))
        except SyntaxError as exc:
            broken.append("%s:%s: %s" % (path, exc.lineno, exc.msg))
    assert not broken, "\n".join(broken)


def test_no_keywords_newer_than_python_3_9():
    offenders = []
    for path in _PY_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            banned = _TOO_NEW_KEYWORDS.get(_called_name(node), ())
            for keyword in node.keywords:
                if keyword.arg in banned:
                    offenders.append("%s:%d: %s(%s=...)" % (
                        path, node.lineno, _called_name(node), keyword.arg))
    assert not offenders, "\n".join(offenders)
