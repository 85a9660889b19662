"""Shared workload types: QA pairs and retrieval queries with gold labels."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

# Question classes used by E2 and the routing analysis.
KIND_STRUCTURED_ENTITY = "structured_entity"      # one entity, tables only
KIND_STRUCTURED_AGG = "structured_agg"            # aggregate, tables only
KIND_UNSTRUCTURED_FACT = "unstructured_fact"      # fact only in text
KIND_CROSS_MODAL = "cross_modal_multi_entity"     # needs text + tables
KIND_COMPARISON = "comparison_multi_entity"       # two-entity comparison
QA_KINDS = (
    KIND_STRUCTURED_ENTITY, KIND_STRUCTURED_AGG, KIND_UNSTRUCTURED_FACT,
    KIND_CROSS_MODAL, KIND_COMPARISON,
)


@dataclass
class QAPair:
    """One benchmark question with its gold answer.

    ``answer_value`` is the numeric gold (when numeric); ``answer_text``
    a string the answer must contain (when textual). ``relevant_docs``
    are the text documents that ground the answer (retrieval gold).
    """

    question: str
    kind: str
    answer_value: Optional[float] = None
    answer_text: Optional[str] = None
    relevant_docs: Tuple[str, ...] = ()
    metadata: Dict[str, Any] = field(default_factory=dict)

    def is_correct(self, answer) -> bool:
        """Score an :class:`~repro.qa.answer.Answer` against the gold."""
        if answer.abstained:
            return False
        if self.answer_value is not None:
            magnitude = bool(self.metadata.get("magnitude"))
            gold = abs(self.answer_value) if magnitude else self.answer_value

            def close(x: float) -> bool:
                got = abs(x) if magnitude else x
                return abs(got - gold) < max(1e-6, abs(gold) * 1e-4)

            value = answer.value
            if isinstance(value, (list, tuple)) and len(value) == 1:
                value = value[0]
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ) and close(float(value)):
                return True
            # Accept the number verbalized in the text ("It is 20%.",
            # "$1.2 million") — scale-aware extraction.
            from ...text.patterns import extract_first_scalar

            scalar = extract_first_scalar(answer.text)
            if scalar is not None and close(scalar):
                return True
            return False
        if self.answer_text is not None:
            return answer.contains_text(self.answer_text)
        return False


@dataclass
class RetrievalQuery:
    """One retrieval benchmark query with its relevant chunk documents.

    ``query_class`` is "direct" when the relevant documents mention the
    queried entity by name, "indirect" when reaching them requires a
    relational hop through structured records (e.g. manufacturer →
    product → review) — the case that separates graph traversal from
    lexical matching.
    """

    query: str
    relevant_docs: Set[str]
    n_entities: int = 1
    query_class: str = "direct"
