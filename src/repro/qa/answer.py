"""The Answer type returned by every QA engine.

Answers carry provenance (which chunks / table rows grounded them), the
producing system's name, and a confidence — so benches can score
accuracy, groundedness and abstention uniformly across the hybrid
pipeline and the baselines.

An answer is a value: once built, no holder can change it. A stage
that decides something (cross-check, degradation, review flags)
derives a new answer with :func:`dataclasses.replace` or
:meth:`Answer.with_metadata`, so caches and single-flight riders can
share one object without copying it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

ANSWER_SYSTEM_HYBRID = "hybrid"
ANSWER_SYSTEM_TEXT2SQL = "text2sql"
ANSWER_SYSTEM_RAG = "rag"


def _read_only(self, *args: Any, **kwargs: Any) -> None:
    raise TypeError("answers are read-only; derive a new one with "
                    "dataclasses.replace or Answer.with_metadata")


class FrozenList(list):
    """A list no holder can mutate; ``==``, ``repr`` and ``json.dumps``
    are those of the plain list."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = _read_only
    sort = reverse = _read_only

    def __reduce__(self):
        return (type(self), (list(self),))


class FrozenDict(dict):
    """A dict no holder can mutate; ``==``, ``repr`` and ``json.dumps``
    are those of the plain dict."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (type(self), (dict(self),))


def freeze(value: Any) -> Any:
    """*value* with every plain list and dict, at any depth, copied
    into its read-only twin; anything else (tuples, scalars, already
    frozen containers) is returned as it is."""
    kind = type(value)
    if kind is dict:
        return FrozenDict({key: freeze(item) for key, item in value.items()})
    if kind is list:
        return FrozenList([freeze(item) for item in value])
    return value


@dataclass(frozen=True)
class Answer:
    """One QA answer with provenance.

    ``value`` holds the typed payload when the answer is a scalar or a
    row list; ``text`` is the verbalized form shown to users.
    ``abstained`` marks questions the engine declined (e.g. Text-to-SQL
    on an unstructured question).

    Frozen: ``value`` and ``metadata`` are deep-frozen copies of what
    the constructor was given (see :func:`freeze`), so every mutator
    raises ``TypeError`` and the caller's containers are never aliased.
    """

    text: str
    value: Any = None
    confidence: float = 0.0
    grounded: bool = False
    abstained: bool = False
    system: str = ANSWER_SYSTEM_HYBRID
    provenance: Tuple[str, ...] = ()
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", freeze(self.value))
        object.__setattr__(self, "metadata", freeze(self.metadata))

    def with_metadata(self, **entries: Any) -> "Answer":
        """This answer with *entries* merged into ``metadata``: existing
        keys keep their place, new ones go last.

        Same result as ``dataclasses.replace(self, metadata=...)`` at
        a third of the cost (it runs once per ask): every other field
        is already frozen, so the copy skips ``__init__``.
        """
        derived = object.__new__(type(self))
        derived.__dict__.update(self.__dict__)
        object.__setattr__(derived, "metadata",
                           freeze({**self.metadata, **entries}))
        return derived

    @classmethod
    def abstain(cls, system: str, reason: str = "") -> "Answer":
        """A no-answer result."""
        return cls(
            text="", value=None, confidence=0.0, grounded=False,
            abstained=True, system=system,
            metadata={"reason": reason} if reason else {},
        )

    def fingerprint(self) -> str:
        """Byte-comparable rendering of every observable field — what
        "identical answers" means across the equivalence suites."""
        return repr((
            self.text, self.value, self.confidence, self.grounded,
            self.system, self.provenance, sorted(self.metadata.items()),
        ))

    def contains_text(self, expected: str) -> bool:
        """Case-insensitive containment check against text and value."""
        needle = expected.strip().lower()
        if needle and needle in self.text.lower():
            return True
        if isinstance(self.value, str):
            return needle in self.value.lower()
        if isinstance(self.value, (list, tuple)):
            return any(
                isinstance(v, str) and needle in v.lower()
                for v in self.value
            )
        return False
