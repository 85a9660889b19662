"""The Answer type returned by every QA engine.

Answers carry provenance (which chunks / table rows grounded them), the
producing system's name, and a confidence — so benches can score
accuracy, groundedness and abstention uniformly across the hybrid
pipeline and the baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

ANSWER_SYSTEM_HYBRID = "hybrid"
ANSWER_SYSTEM_TEXT2SQL = "text2sql"
ANSWER_SYSTEM_RAG = "rag"


@dataclass
class Answer:
    """One QA answer with provenance.

    ``value`` holds the typed payload when the answer is a scalar or a
    row list; ``text`` is the verbalized form shown to users.
    ``abstained`` marks questions the engine declined (e.g. Text-to-SQL
    on an unstructured question).
    """

    text: str
    value: Any = None
    confidence: float = 0.0
    grounded: bool = False
    abstained: bool = False
    system: str = ANSWER_SYSTEM_HYBRID
    provenance: Tuple[str, ...] = ()
    metadata: Dict[str, Any] = field(default_factory=dict)

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

    def matches_number(self, expected: float,
                       rel_tol: float = 1e-4) -> bool:
        """True when the answer's numeric value equals *expected*."""
        value = self.value
        if isinstance(value, (list, tuple)) and len(value) == 1:
            value = value[0]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return math.isclose(float(value), expected, rel_tol=rel_tol,
                            abs_tol=1e-9)

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
