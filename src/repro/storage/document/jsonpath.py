"""A minimal JSONPath-style selector for the document store.

Supports dotted paths with array handling, enough for the paper's
semi-structured workloads (JSON logs, XML-ish configs flattened to
dicts):

* ``a.b.c``    — nested field access;
* ``a[0].b``   — list index;
* ``a[*].b``   — fan out over a list (returns every match);
* ``a.*``      — fan out over a dict's values.

``select`` returns *all* matches; ``select_one`` the first or None.
"""

from __future__ import annotations

import re
from typing import Any, List, Union

from ...errors import StorageError

_STEP_RE = re.compile(
    r"""
    (?P<name>[A-Za-z_][A-Za-z0-9_\-]*|\*)     # field name or wildcard
    (?P<indexes>(?:\[(?:\d+|\*)\])*)          # optional [i] / [*] suffixes
    """,
    re.VERBOSE,
)


def parse_path(path: str) -> List[Union[str, int]]:
    """Compile a path string into a step list.

    Steps are field names (str), list indexes (int), or the wildcards
    ``"*"`` (dict fan-out) and ``"[*]"`` (list fan-out).

    >>> parse_path("a[0].b")
    ['a', 0, 'b']
    """
    if not path:
        raise StorageError("empty document path")
    steps: List[Union[str, int]] = []
    for raw in path.split("."):
        match = _STEP_RE.fullmatch(raw)
        if match is None:
            raise StorageError("bad path segment %r in %r" % (raw, path))
        steps.append(match.group("name"))
        for idx in re.findall(r"\[(\d+|\*)\]", match.group("indexes")):
            steps.append("[*]" if idx == "*" else int(idx))
    return steps


def _step(values: List[Any], step: Union[str, int]) -> List[Any]:
    out: List[Any] = []
    for value in values:
        if isinstance(step, int):
            if isinstance(value, list) and -len(value) <= step < len(value):
                out.append(value[step])
        elif step == "[*]":
            if isinstance(value, list):
                out.extend(value)
        elif step == "*":
            if isinstance(value, dict):
                out.extend(value.values())
        else:
            if isinstance(value, dict) and step in value:
                out.append(value[step])
            elif isinstance(value, list):
                # Implicit fan-out: "a.b" over a list of objects.
                for item in value:
                    if isinstance(item, dict) and step in item:
                        out.append(item[step])
    return out


def select(document: Any, path: str) -> List[Any]:
    """All values at *path* within *document*.

    >>> select({"a": [{"b": 1}, {"b": 2}]}, "a[*].b")
    [1, 2]
    """
    values = [document]
    for step in parse_path(path):
        values = _step(values, step)
        if not values:
            return []
    return values


def select_one(document: Any, path: str, default: Any = None) -> Any:
    """First value at *path*, or *default* when absent."""
    matches = select(document, path)
    return matches[0] if matches else default
