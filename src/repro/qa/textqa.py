"""RAG text QA: retrieve chunks, generate a grounded answer.

With a topology retriever this is the paper's lightweight RAG path;
with a dense retriever it doubles as the conventional-RAG baseline of
E2/E6. Either way the answer carries chunk-level provenance.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs import span
from ..retrieval.base import RetrievedChunk, Retriever
from ..slm.model import SmallLanguageModel
from ..tenancy import TenantContext
from .answer import ANSWER_SYSTEM_RAG, Answer


class TextQAEngine:
    """Retrieval-augmented QA over a chunked corpus.

    With ``verify_grounding`` enabled, each generated answer is checked
    against its cited chunk via the SLM's entailment judge: answers the
    evidence does not entail are down-weighted and flagged — a cheap
    hallucination detector that catches the "plausible but ungrounded"
    generations the paper warns about.
    """

    def __init__(self, retriever: Retriever, slm: SmallLanguageModel,
                 k: int = 4, temperature: float = 0.4,
                 system_name: str = ANSWER_SYSTEM_RAG,
                 verify_grounding: bool = True):
        if k < 1:
            raise ValueError("k must be >= 1")
        self._retriever = retriever
        self._slm = slm
        self._k = k
        self._temperature = temperature
        self._system = system_name
        self._verify = verify_grounding

    def retrieve(self, question: str,
                 tenant: Optional[TenantContext] = None
                 ) -> List[RetrievedChunk]:
        """The retrieval half, exposed for inspection and benches.

        With a *tenant* context the hit list is filtered to the
        tenant's visible document scopes **after** retrieval, so an
        out-of-scope document can never reach generation, provenance
        or the entailment verifier.
        """
        hits = self._retriever.retrieve(question, self._k)
        if tenant is None or not tenant.doc_scopes:
            return hits
        return [h for h in hits if tenant.doc_visible(h.chunk.doc_id)]

    def answer(self, question: str,
               tenant: Optional[TenantContext] = None) -> Answer:
        """Retrieve context and generate one (verified) answer."""
        with span("qa.textqa") as sp:
            hits = self.retrieve(question, tenant=tenant)
            contexts = [hit.chunk.text for hit in hits]
            generation = self._slm.generate(
                question, contexts, temperature=self._temperature
            )
            provenance = tuple(
                hits[i].chunk_id for i in generation.support
                if 0 <= i < len(hits)
            )
            confidence = generation.confidence
            grounded = generation.grounded
            metadata = {"n_context": len(contexts)}
            if self._verify:
                verified = self._verify_against_evidence(generation, hits)
                metadata["verified"] = verified
                if not generation.support:
                    # Nothing cited: fabricated by construction.
                    confidence *= 0.5
                elif not verified:
                    confidence *= 0.6
                    grounded = False
            answer = Answer(
                text=generation.text,
                value=_extract_scalar(generation.text),
                confidence=confidence,
                grounded=grounded,
                system=self._system,
                provenance=provenance,
                metadata=metadata,
            )
            sp.set("n_context", len(contexts))
            sp.set("grounded", answer.grounded)
            return answer

    def _verify_against_evidence(self, generation,
                                 hits: List[RetrievedChunk]):
        """The entailment verdict on the cited chunks (False when the
        generation cites nothing)."""
        if not generation.support:
            return False
        evidence = " ".join(
            hits[i].chunk.text for i in generation.support
            if 0 <= i < len(hits)
        )
        return self._slm.entails(evidence, generation.text)


def _extract_scalar(text: str):
    """Pull the first numeric value out of a verbalized answer.

    Scale-aware: "$1.2 million" parses to 1200000.0 (see
    :func:`repro.text.patterns.extract_first_scalar`).
    """
    from ..text.patterns import extract_first_scalar

    return extract_first_scalar(text)
