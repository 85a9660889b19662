"""Finding reporters: text and JSON."""

from __future__ import annotations

import json
from typing import List

from .core import Finding


def render_text(findings: List[Finding]) -> str:
    """``path:line: [rule] message`` lines plus a summary footer."""
    lines = [finding.render() for finding in findings]
    if findings:
        rules = sorted({finding.rule for finding in findings})
        lines.append("")
        lines.append("%d finding(s) across %d rule(s): %s" % (
            len(findings), len(rules), ", ".join(rules)))
    else:
        lines.append("no findings")
    return "\n".join(lines)


def render_json(findings: List[Finding]) -> str:
    """Stable JSON document: ``{"findings": [...], "count": N}``."""
    payload = {
        "count": len(findings),
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "rule": finding.rule,
                "message": finding.message,
            }
            for finding in findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
