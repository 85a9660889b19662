"""Command-line entry point: ``python -m repro.lint [paths...]``.

Exit codes: 0 = clean, 1 = findings reported, 2 = usage error
(e.g. an unknown rule id passed to ``--select``/``--ignore``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from .core import LintEngine, all_rules, rule_ids
from .report import render_json, render_text


def _default_root() -> pathlib.Path:
    # The package we ship is the default lint target.
    return pathlib.Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the lint CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths", nargs="*", type=pathlib.Path,
        help="package roots to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _pick_rules(select: Optional[str], ignore: Optional[str]):
    selected = set(select.split(",")) if select else set(rule_ids())
    ignored = set(ignore.split(",")) if ignore else set()
    unknown = (selected | ignored) - set(rule_ids())
    if unknown:
        raise ValueError("unknown rule id(s): %s"
                         % ", ".join(sorted(unknown)))
    return [rule for rule in all_rules()
            if rule.id in selected and rule.id not in ignored]


def main(argv: Optional[List[str]] = None) -> int:
    """Run the linter; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print("%-20s %s" % (rule.id, rule.summary))
        return 0

    try:
        rules = _pick_rules(args.select, args.ignore)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    roots = args.paths or [_default_root()]
    engine = LintEngine(rules)
    findings = []
    for root in roots:
        if not root.exists():
            print("error: no such path: %s" % root, file=sys.stderr)
            return 2
        if root.is_file():
            findings.extend(engine.lint_source(
                root.read_text(encoding="utf-8"), root.name))
        else:
            findings.extend(engine.lint_tree(root))

    render = render_json if args.format == "json" else render_text
    print(render(findings))
    return 1 if findings else 0
