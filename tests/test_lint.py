"""Unit tests for the repro.lint static-analysis engine.

Covers each rule on minimal inline snippets, suppression pragmas,
the project-scope cycle detector, reporters, and CLI exit codes.
"""

import json
import textwrap

from repro.lint import LintEngine, all_rules, rule_ids
from repro.lint.cli import main as lint_main
from repro.lint.core import Finding, parse_suppressions
from repro.lint.report import render_json, render_text


def run_rule(rule_id, source, relpath="qa/snippet.py"):
    """Lint *source* with exactly one rule; return its findings."""
    rules = [r for r in all_rules() if r.id == rule_id]
    assert rules, "unknown rule id %r" % rule_id
    return LintEngine(rules).lint_source(
        textwrap.dedent(source), relpath)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

class TestDeterminismRule:
    def test_wall_clock_flagged(self):
        findings = run_rule("determinism", """\
            import time
            def stamp():
                return time.time()
        """)
        assert len(findings) == 1
        assert "time.time()" in findings[0].message
        assert findings[0].line == 3

    def test_datetime_now_flagged_via_alias(self):
        findings = run_rule("determinism", """\
            import datetime as _dt
            def stamp():
                return _dt.datetime.now()
        """)
        assert len(findings) == 1
        assert "datetime.datetime.now" in findings[0].message

    def test_unseeded_rng_flagged_seeded_ok(self):
        findings = run_rule("determinism", """\
            import random
            bad = random.Random()
            good = random.Random(7)
        """)
        assert len(findings) == 1
        assert "without a seed" in findings[0].message
        assert findings[0].line == 2

    def test_global_rng_convenience_fn_flagged(self):
        findings = run_rule("determinism", """\
            import random
            def roll():
                return random.randint(1, 6)
        """)
        assert len(findings) == 1
        assert "global RNG" in findings[0].message

    def test_monotonic_clocks_allowed(self):
        findings = run_rule("determinism", """\
            import time
            def elapsed(t0):
                return time.perf_counter() - t0
        """)
        assert findings == []

    def test_entry_points_exempt(self):
        findings = run_rule("determinism", """\
            import time
            t = time.time()
        """, relpath="cli.py")
        assert findings == []

    def test_from_import_of_datetime_class(self):
        findings = run_rule("determinism", """\
            from datetime import datetime
            def stamp():
                return datetime.now()
        """)
        assert len(findings) == 1
        assert "datetime.datetime.now" in findings[0].message

    def test_module_alias(self):
        findings = run_rule("determinism", """\
            import time as t
            def stamp():
                return t.time()
        """)
        assert len(findings) == 1
        assert "time.time()" in findings[0].message

    def test_from_import_of_function(self):
        findings = run_rule("determinism", """\
            from time import time
            def stamp():
                return time()
        """)
        assert len(findings) == 1
        assert "time.time()" in findings[0].message

    def test_uncalled_reference_flagged(self):
        # Passing the callable around defers the entropy read to the
        # eventual caller; it must be caught at the reference site.
        findings = run_rule("determinism", """\
            import time
            stamp = time.time
        """)
        assert len(findings) == 1
        assert "uncalled" in findings[0].message

    def test_uncalled_from_import_reference_flagged(self):
        findings = run_rule("determinism", """\
            from datetime import datetime
            def clock(fn=datetime.now):
                return fn()
        """)
        assert len(findings) == 1
        assert "datetime.datetime.now" in findings[0].message

    def test_call_not_double_flagged_as_reference(self):
        findings = run_rule("determinism", """\
            import time
            def stamp():
                return time.time()
        """)
        assert len(findings) == 1

    def test_uncalled_monotonic_reference_ok(self):
        findings = run_rule("determinism", """\
            import time
            clock = time.perf_counter
        """)
        assert findings == []


# ----------------------------------------------------------------------
# exception-hygiene
# ----------------------------------------------------------------------

class TestExceptionHygieneRule:
    def test_bare_except_flagged(self):
        findings = run_rule("exception-hygiene", """\
            try:
                x = 1
            except:
                pass
        """)
        assert len(findings) == 1
        assert "bare 'except:'" in findings[0].message

    def test_silent_except_exception_pass_flagged(self):
        findings = run_rule("exception-hygiene", """\
            try:
                x = 1
            except Exception:
                pass
        """)
        assert len(findings) == 1
        assert "swallows" in findings[0].message

    def test_handled_except_exception_ok(self):
        findings = run_rule("exception-hygiene", """\
            import logging
            try:
                x = 1
            except Exception as exc:
                logging.warning("boom: %s", exc)
        """)
        assert findings == []

    def test_raise_exception_flagged(self):
        findings = run_rule("exception-hygiene", """\
            def f():
                raise Exception("nope")
        """)
        assert len(findings) == 1
        assert "untypable" in findings[0].message

    def test_disallowed_builtin_raise_flagged(self):
        findings = run_rule("exception-hygiene", """\
            def f():
                raise OSError("nope")
        """)
        assert len(findings) == 1
        assert "taxonomy" in findings[0].message

    def test_guard_clause_valueerror_ok(self):
        findings = run_rule("exception-hygiene", """\
            def f(n):
                if n < 0:
                    raise ValueError("n must be >= 0")
        """)
        assert findings == []

    def test_domain_error_classes_ok(self):
        findings = run_rule("exception-hygiene", """\
            from repro.errors import PlanError
            def f():
                raise PlanError("nope")
        """)
        assert findings == []


# ----------------------------------------------------------------------
# layering
# ----------------------------------------------------------------------

class TestLayeringRule:
    def test_upward_import_flagged(self):
        findings = run_rule("layering", """\
            from repro.qa import pipeline
            x = pipeline
        """, relpath="storage/engine.py")
        assert len(findings) == 1
        assert "storage must not import repro.qa" in findings[0].message

    def test_downward_import_ok(self):
        findings = run_rule("layering", """\
            from repro.errors import StorageError
            x = StorageError
        """, relpath="storage/engine.py")
        assert findings == []

    def test_lazy_import_still_counts(self):
        findings = run_rule("layering", """\
            def f():
                from repro.semql import compiler
                return compiler
        """, relpath="text/tokenize.py")
        assert len(findings) == 1

    def test_relative_import_resolved(self):
        findings = run_rule("layering", """\
            from ..qa import pipeline
            x = pipeline
        """, relpath="text/tokenize.py")
        assert len(findings) == 1
        assert "text must not import repro.qa" in findings[0].message

    def test_entry_points_exempt(self):
        findings = run_rule("layering", """\
            from repro.qa import pipeline
            x = pipeline
        """, relpath="bench/run.py")
        assert findings == []

    def test_undeclared_unit_flagged(self):
        findings = run_rule("layering", """\
            from repro.errors import ReproError
            x = ReproError
        """, relpath="mystery/mod.py")
        assert len(findings) == 1
        assert "no declared layer" in findings[0].message


# ----------------------------------------------------------------------
# mutable-default / no-print / docstrings / unused-import
# ----------------------------------------------------------------------

class TestMutableDefaultRule:
    def test_literal_defaults_flagged(self):
        findings = run_rule("mutable-default", """\
            def f(a, acc=[], seen={}, opts=set()):
                return a
        """)
        assert len(findings) == 3

    def test_kwonly_and_lambda_defaults_flagged(self):
        findings = run_rule("mutable-default", """\
            def f(*, acc=[]):
                return acc
            g = lambda xs=[]: xs
        """)
        assert len(findings) == 2

    def test_none_default_ok(self):
        findings = run_rule("mutable-default", """\
            def f(acc=None, n=3, name="x"):
                return acc
        """)
        assert findings == []


class TestNoPrintRule:
    def test_print_flagged(self):
        findings = run_rule("no-print", """\
            def f(x):
                print(x)
        """)
        assert len(findings) == 1

    def test_cli_allowlisted(self):
        findings = run_rule("no-print", """\
            print("usage: ...")
        """, relpath="cli.py")
        assert findings == []


class TestDocstringRule:
    def test_missing_docstrings_flagged(self):
        findings = run_rule("docstrings", """\
            def public():
                return 1

            class Thing:
                def method(self):
                    return 2
        """)
        messages = [f.message for f in findings]
        assert any("module lacks" in m for m in messages)
        assert any("'public'" in m for m in messages)
        assert any("Thing.method" in m for m in messages)

    def test_private_names_and_subclasses_exempt(self):
        findings = run_rule("docstrings", '''\
            """Module docs."""

            def _helper():
                return 1

            class Sub(dict):
                """Subclass methods inherit their contract's docs."""

                def method(self):
                    return 2
        ''')
        assert findings == []


class TestUnusedImportRule:
    def test_module_level_unused_flagged(self):
        findings = run_rule("unused-import", """\
            import os
            import sys
            print(sys.argv)
        """)
        assert len(findings) == 1
        assert "'os'" in findings[0].message

    def test_function_level_unused_flagged(self):
        findings = run_rule("unused-import", """\
            def f():
                import json
                return 1
        """)
        assert len(findings) == 1
        assert "within f()" in findings[0].message

    def test_init_reexports_exempt_at_module_level(self):
        findings = run_rule("unused-import", """\
            from repro.errors import ReproError
        """, relpath="qa/__init__.py")
        assert findings == []


# ----------------------------------------------------------------------
# module-state
# ----------------------------------------------------------------------

class TestModuleStateRule:
    def test_mutated_module_dict_flagged(self):
        findings = run_rule("module-state", """\
            _CACHE = {}
            def remember(key, value):
                _CACHE[key] = value
        """)
        assert len(findings) == 1
        assert "'_CACHE'" in findings[0].message
        assert findings[0].line == 1  # anchored at the definition

    def test_method_mutation_flagged(self):
        findings = run_rule("module-state", """\
            _SEEN = []
            def record(item):
                _SEEN.append(item)
        """)
        assert len(findings) == 1

    def test_global_rebind_flagged(self):
        findings = run_rule("module-state", """\
            _STATE = {"a": 1}
            def reset():
                global _STATE
                _STATE = {}
        """)
        assert len(findings) == 1

    def test_constructor_containers_covered(self):
        findings = run_rule("module-state", """\
            import collections
            _ORDER = collections.OrderedDict()
            def push(k, v):
                _ORDER[k] = v
        """)
        assert len(findings) == 1

    def test_read_only_module_constant_allowed(self):
        findings = run_rule("module-state", """\
            _TABLE = {"a": 1, "b": 2}
            def lookup(key):
                return _TABLE.get(key)
        """)
        assert findings == []

    def test_local_shadow_not_flagged(self):
        findings = run_rule("module-state", """\
            _ROWS = []
            def build():
                _ROWS = []
                _ROWS.append(1)
                return _ROWS
        """)
        assert findings == []

    def test_instance_state_not_flagged(self):
        findings = run_rule("module-state", """\
            class Cache:
                def __init__(self):
                    self._entries = {}
                def put(self, k, v):
                    self._entries[k] = v
        """)
        assert findings == []

    def test_serving_modules_exempt(self):
        findings = run_rule("module-state", """\
            _CACHE = {}
            def remember(key, value):
                _CACHE[key] = value
        """, relpath="serving/anything.py")
        assert findings == []

    def test_pragma_suppresses(self):
        findings = run_rule("module-state", """\
            _REGISTRY = {}  # lint: ignore[module-state]
            def register(k, v):
                _REGISTRY[k] = v
        """)
        assert findings == []


class TestTenantStateRule:
    def test_mutable_container_in_tenancy_flagged_unmutated(self):
        # Stricter than module-state: no mutation needed, binding the
        # container at module level is already the finding.
        findings = run_rule("tenant-state", """\
            _ACTIVE = {}
            def lookup(key):
                return _ACTIVE.get(key)
        """, relpath="tenancy/anything.py")
        assert len(findings) == 1
        assert "'_ACTIVE'" in findings[0].message

    def test_tuples_and_frozen_constants_ok(self):
        findings = run_rule("tenant-state", """\
            OPS = ("=", "!=")
            NAME = "tenancy"
        """, relpath="tenancy/registry.py")
        assert findings == []

    def test_dunder_names_exempt(self):
        findings = run_rule("tenant-state", """\
            __all__ = ["TenantContext"]
        """, relpath="tenancy/__init__.py")
        assert findings == []

    def test_other_layers_unaffected(self):
        findings = run_rule("tenant-state", """\
            _CACHE = {}
        """, relpath="serving/cache.py")
        assert findings == []

    def test_tenancy_layering_below_qa_and_serving(self):
        findings = run_rule("layering", """\
            from repro.qa import pipeline
            x = pipeline
        """, relpath="tenancy/check.py")
        assert len(findings) == 1
        findings = run_rule("layering", """\
            from repro.errors import TenancyError
            from repro.storage.relational import Database
            x = (TenancyError, Database)
        """, relpath="tenancy/registry.py")
        assert findings == []
        findings = run_rule("layering", """\
            from repro.tenancy import TenantContext
            x = TenantContext
        """, relpath="serving/server.py")
        assert findings == []


# ----------------------------------------------------------------------
# import-cycle (project scope)
# ----------------------------------------------------------------------

class TestImportCycleRule:
    def _lint_pkg(self, tmp_path, files):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        for name, body in files.items():
            path = pkg / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(body), encoding="utf-8")
        rules = [r for r in all_rules() if r.id == "import-cycle"]
        return LintEngine(rules).lint_tree(pkg)

    def test_two_module_cycle_detected(self, tmp_path):
        findings = self._lint_pkg(tmp_path, {
            "a.py": "from .b import beta\nalpha = beta\n",
            "b.py": "from .a import alpha\nbeta = 1\n",
        })
        assert len(findings) == 1
        assert "a -> b -> a" in findings[0].message

    def test_function_level_import_breaks_cycle(self, tmp_path):
        findings = self._lint_pkg(tmp_path, {
            "a.py": "from .b import beta\nalpha = beta\n",
            "b.py": ("def late():\n"
                     "    from .a import alpha\n"
                     "    return alpha\n"),
        })
        assert findings == []

    def test_submodule_importing_parent_is_not_a_cycle(self, tmp_path):
        # Re-exporting packages partially initialize before their
        # submodules run; that is not a cycle.
        findings = self._lint_pkg(tmp_path, {
            "sub/__init__.py": "from .child import x\n",
            "sub/child.py": "x = 1\n",
            "other.py": "from .sub import x\ny = x\n",
        })
        assert findings == []

    def test_pragma_suppresses_project_scope_finding(self, tmp_path):
        # The cycle anchors on its lexicographically smallest member at
        # the import line; a targeted pragma there must suppress it
        # exactly like a module-scope finding.
        findings = self._lint_pkg(tmp_path, {
            "a.py": ("from .b import beta"
                     "  # lint: ignore[import-cycle]\n"
                     "alpha = beta\n"),
            "b.py": "from .a import alpha\nbeta = 1\n",
        })
        assert findings == []

    def test_pragma_for_other_rule_keeps_cycle_finding(self, tmp_path):
        findings = self._lint_pkg(tmp_path, {
            "a.py": ("from .b import beta  # lint: ignore[no-print]\n"
                     "alpha = beta\n"),
            "b.py": "from .a import alpha\nbeta = 1\n",
        })
        assert len(findings) == 1
        assert findings[0].rule == "import-cycle"


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------

class TestSuppressions:
    def test_targeted_pragma_drops_one_rule(self):
        findings = run_rule("no-print", """\
            def f(x):
                print(x)  # lint: ignore[no-print]
        """)
        assert findings == []

    def test_pragma_for_other_rule_does_not_apply(self):
        findings = run_rule("no-print", """\
            def f(x):
                print(x)  # lint: ignore[unused-import]
        """)
        assert len(findings) == 1

    def test_blanket_pragma_drops_everything(self):
        source = textwrap.dedent("""\
            import os  # lint: ignore
            print(os)
        """)
        findings = LintEngine().lint_source(source, "qa/snip.py")
        assert all(f.line != 1 for f in findings)

    def test_parse_suppressions_shapes(self):
        supp = parse_suppressions(
            "x = 1  # lint: ignore\n"
            "y = 2  # lint: ignore[no-print, unused-import]\n"
            "z = 3\n"
        )
        assert supp[1] == frozenset(["*"])
        assert supp[2] == frozenset(["no-print", "unused-import"])
        assert 3 not in supp


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------

class TestReporters:
    FINDINGS = [Finding("a.py", 3, "no-print", "print() in library code")]

    def test_text_report(self):
        text = render_text(self.FINDINGS)
        assert "a.py:3: [no-print] print() in library code" in text
        assert "1 finding(s) across 1 rule(s): no-print" in text
        assert render_text([]) == "no findings"

    def test_json_report(self):
        payload = json.loads(render_json(self.FINDINGS))
        assert payload["count"] == 1
        assert payload["findings"][0] == {
            "path": "a.py", "line": 3, "rule": "no-print",
            "message": "print() in library code",
        }


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------

class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text('"""Clean module."""\n', encoding="utf-8")
        assert lint_main([str(path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text(
            '"""Docs."""\nimport os\nprint("hi")\n', encoding="utf-8")
        assert lint_main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "[no-print]" in out
        assert "[unused-import]" in out

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text('"""Docs."""\nprint("hi")\n', encoding="utf-8")
        assert lint_main(["--format", "json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "no-print"

    def test_select_filters_rules(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text(
            '"""Docs."""\nimport os\nprint("hi")\n', encoding="utf-8")
        assert lint_main(["--select", "unused-import", str(path)]) == 1
        assert lint_main(["--select", "determinism", str(path)]) == 0

    def test_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--select", "no-such-rule"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "gone")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out

    def test_shipped_tree_is_clean(self, capsys):
        # The acceptance bar: the default target lints clean.
        assert lint_main([]) == 0
        assert "no findings" in capsys.readouterr().out
