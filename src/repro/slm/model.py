"""The Small Language Model facade.

:class:`SmallLanguageModel` bundles every SLM capability the paper's
architecture calls on — embedding, lightweight entity tagging,
grounded generation and entailment — behind one object with a shared
cost meter and a single seed. Subsystems take the facade, never the
parts, so swapping in a real model later means re-implementing one
class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..metering import TAGGING_CALLS, CostMeter, GLOBAL_METER
from ..obs import span
from ..text.ner import Entity, EntityRecognizer, Gazetteer
from .embeddings import EmbeddingModel
from .entailment import EntailmentJudge
from .generator import AnswerGenerator, Generation


@dataclass
class SLMConfig:
    """Construction-time knobs of the simulated SLM.

    embedding_dim:
        Encoder output width (small by design — the paper targets
        sub-billion-parameter models).
    entity_dropout:
        Probability of *missing* a true entity while tagging; simulates
        the reduced recall of a small tagger and is swept in ablations.
    hallucination_bias:
        Extra fabrication probability for the generator (see E3).
    seed:
        Seed for all stochastic behaviour of this model instance.
    """

    embedding_dim: int = 128
    entity_dropout: float = 0.0
    hallucination_bias: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.entity_dropout < 1.0:
            raise ValueError("entity_dropout must be in [0, 1)")


class SmallLanguageModel:
    """Facade over the simulated SLM's capabilities.

    Parameters
    ----------
    config:
        Optional :class:`SLMConfig`.
    gazetteer:
        Known entity names (usually harvested from the structured side
        of the data lake) used by the tagging head.
    meter:
        Shared :class:`CostMeter`; defaults to the process-global one.
    """

    def __init__(self, config: Optional[SLMConfig] = None,
                 gazetteer: Optional[Gazetteer] = None,
                 meter: Optional[CostMeter] = None):
        self.config = config or SLMConfig()
        self.meter = meter if meter is not None else GLOBAL_METER
        self._rng = random.Random(self.config.seed)
        self.embedder = EmbeddingModel(
            dim=self.config.embedding_dim, meter=self.meter
        )
        self._recognizer = EntityRecognizer(gazetteer)
        self.generator = AnswerGenerator(
            seed=self.config.seed,
            hallucination_bias=self.config.hallucination_bias,
            meter=self.meter,
        )
        self.judge = EntailmentJudge(meter=self.meter)

    # ------------------------------------------------------------------
    # Encoder
    # ------------------------------------------------------------------
    def embed(self, text: str) -> np.ndarray:
        """Embed one text (charges ``embedding_calls``)."""
        with span("slm.embed"):
            return self.embedder.embed(text)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed many texts into an (n, dim) matrix."""
        with span("slm.embed_batch", n_texts=len(texts)):
            return self.embedder.embed_batch(texts)

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity between two texts."""
        return self.embedder.similarity(a, b)

    # ------------------------------------------------------------------
    # Tagging heads
    # ------------------------------------------------------------------
    def add_gazetteer(self, etype: str, names: Iterable[str]) -> None:
        """Teach the tagging head new entity surface forms."""
        self._recognizer.add_gazetteer(etype, names)

    def gazetteer_entries(self) -> dict:
        """type → surface-form list of the tagging head's gazetteer."""
        return {
            etype: list(names)
            for etype, names in self._recognizer.gazetteer.entries.items()
        }

    def tag_entities(self, text: str) -> List[Entity]:
        """Named-entity tag *text*, with configured recall dropout."""
        with span("slm.tag") as sp:
            self.meter.charge(TAGGING_CALLS)
            entities = self._recognizer.recognize(text)
            if self.config.entity_dropout > 0.0:
                entities = [
                    e for e in entities
                    if self._rng.random() >= self.config.entity_dropout
                ]
            sp.set("n_entities", len(entities))
            return entities

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self, question: str, contexts: Sequence[str],
                 temperature: float = 0.7) -> Generation:
        """One grounded answer sample."""
        with span("slm.generate", n_context=len(contexts)):
            return self.generator.generate(question, contexts, temperature)

    def sample_answers(self, question: str, contexts: Sequence[str],
                       n_samples: int = 8, temperature: float = 0.9,
                       seed: Optional[int] = None) -> List[Generation]:
        """The multi-sample protocol used for semantic entropy."""
        with span("slm.sample", n_samples=n_samples):
            return self.generator.sample_many(
                question, contexts, n_samples, temperature, seed
            )

    # ------------------------------------------------------------------
    # Entailment
    # ------------------------------------------------------------------
    def entails(self, premise: str, hypothesis: str) -> bool:
        """Directional entailment judgement."""
        with span("slm.entail"):
            return self.judge.entails(premise, hypothesis)

    def equivalent(self, a: str, b: str) -> bool:
        """Bidirectional entailment (semantic equivalence)."""
        return self.judge.equivalent(a, b)
