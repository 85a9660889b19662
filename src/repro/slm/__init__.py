"""Simulated Small Language Model substrate.

Embeddings, grounded generation, entailment and tagging behind the
:class:`SmallLanguageModel` facade. See DESIGN.md §1 for why a
simulated SLM is a faithful substitute here.
"""

from .embeddings import EmbeddingModel
from .entailment import (
    CONTRADICTION, ENTAILMENT, NEUTRAL, EntailmentJudge,
)
from .generator import (
    ANSWER_DATE, ANSWER_ENTITY, ANSWER_FREEFORM, ANSWER_NUMERIC,
    AnswerGenerator, Generation, classify_answer_kind,
)
from .model import SLMConfig, SmallLanguageModel

__all__ = [
    "EmbeddingModel",
    "CONTRADICTION", "ENTAILMENT", "NEUTRAL", "EntailmentJudge",
    "ANSWER_DATE", "ANSWER_ENTITY", "ANSWER_FREEFORM", "ANSWER_NUMERIC",
    "AnswerGenerator", "Generation", "classify_answer_kind",
    "SLMConfig", "SmallLanguageModel",
]
