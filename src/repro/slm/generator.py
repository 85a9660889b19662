"""Knowledge-grounded answer generation with temperature sampling.

This module simulates the *generative* half of the SLM. Given a
question and retrieved context, it behaves like an extractive
reader-generator:

1. analyse the question (focus terms, expected answer kind);
2. score each context sentence by stemmed-term overlap;
3. extract the answer-bearing value/entity from the best sentence;
4. verbalize it through one of several paraphrase templates.

Crucially for the semantic-entropy experiments (E3), the generator has
*calibrated* failure modes: when the context supports the answer well,
repeated samples stay in one semantic cluster (paraphrases of the same
fact); when support is weak, temperature sampling scatters across
competing candidates or fabricated values — exactly the high-entropy
behaviour the paper describes for ambiguous queries.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..metering import GENERATION_CALLS, CostMeter, GLOBAL_METER
from ..text.patterns import (
    KIND_DATE, KIND_MONEY, KIND_NUMBER, KIND_PERCENT, KIND_QUARTER,
    PatternMatch, find_patterns,
)
from ..text.stemmer import stem
from ..text.stopwords import content_stems, content_words
from ..text.tokenizer import split_sentences, words

ANSWER_NUMERIC = "numeric"
ANSWER_DATE = "date"
ANSWER_ENTITY = "entity"
ANSWER_FREEFORM = "freeform"

_NUMERIC_CUES = ("how many", "how much", "what percent", "percentage",
                 "what is the total", "average", "rate", "count",
                 "what was the", "increase", "decrease")
_DATE_CUES = ("when", "what date", "which date", "what day", "which year")
_ENTITY_CUES = ("who", "which", "what product", "what drug", "name the")

_PARAPHRASE_TEMPLATES = (
    "{core}",
    "The answer is {core}.",
    "It is {core}.",
    "{core}, according to the records.",
    "Based on the data, {core}.",
    "Records indicate {core}.",
    "Our reading of the reports gives {core}.",
    "The documents point to {core} overall.",
    "Roughly speaking, it comes to {core}.",
    "Analysis of the available figures shows {core}.",
)

_FABRICATED_NUMBERS = ("7%", "12%", "25%", "40%", "3", "9", "15", "88")

#: Bound of the context-analysis memo. Both benchmark lakes together
#: hold ~150 distinct chunks, so this never evicts there and still caps
#: what a long run over a growing corpus can keep.
CONTEXT_MEMO_SIZE = 1024


@dataclass(frozen=True)
class Generation:
    """One sampled answer with its token-level log-probabilities.

    ``grounded`` is True when the answer was extracted from context
    rather than fabricated; ``support`` lists the context indices the
    answer came from (provenance for the QA layer's citations).
    """

    text: str
    token_logprobs: Tuple[float, ...]
    grounded: bool
    support: Tuple[int, ...]
    confidence: float

    @property
    def logprob(self) -> float:
        """Total sequence log-probability."""
        return sum(self.token_logprobs)

    @property
    def mean_logprob(self) -> float:
        """Length-normalized log-probability."""
        if not self.token_logprobs:
            return 0.0
        return self.logprob / len(self.token_logprobs)


def classify_answer_kind(question: str) -> str:
    """Infer the expected answer kind from question surface cues.

    >>> classify_answer_kind("When did the trial start?")
    'date'
    """
    low = question.lower()
    for cue in _DATE_CUES:
        if cue in low:
            return ANSWER_DATE
    for cue in _NUMERIC_CUES:
        if cue in low:
            return ANSWER_NUMERIC
    for cue in _ENTITY_CUES:
        if cue in low:
            return ANSWER_ENTITY
    return ANSWER_FREEFORM


def _focus_stems(question: str) -> List[str]:
    return [
        stem(w) for w in content_words(question)
        if len(w) >= 2
        and w not in ("what", "which", "when", "who", "how", "many", "much")
    ]


@lru_cache(maxsize=CONTEXT_MEMO_SIZE)
def _context_sentences(context: str) -> Tuple[
        Tuple[str, FrozenSet[str], Tuple[PatternMatch, ...]], ...]:
    """Per sentence of *context*: its text, content stems and patterns.

    Retrieved chunks recur across distinct questions, so a context is
    analysed once, not once per call. Keyed by content: a pure function
    of an immutable string has nothing to invalidate, outlives an
    ingest and holds no pipeline state.
    """
    return tuple(
        (sentence, frozenset(content_stems(sentence)),
         tuple(find_patterns(sentence)))
        for sentence in split_sentences(context)
    )


@dataclass
class _Candidate:
    sentence: str
    context_index: int
    score: float
    core: str


class AnswerGenerator:
    """Sample answers to a question given retrieved context strings.

    Parameters
    ----------
    seed:
        Base RNG seed; each call can override with its own ``rng``.
    hallucination_bias:
        Added probability mass for fabricating when support is weak;
        models smaller/less-grounded SLMs (swept in E2/E3).
    meter:
        Charged one ``generation_calls`` unit per sample.
    """

    def __init__(self, seed: int = 0, hallucination_bias: float = 0.0,
                 meter: Optional[CostMeter] = None):
        if not 0.0 <= hallucination_bias <= 1.0:
            raise ValueError("hallucination_bias must be in [0, 1]")
        self._seed = seed
        self._bias = hallucination_bias
        self._meter = meter if meter is not None else GLOBAL_METER

    def _call_rng(self, question: str, contexts: Sequence[str],
                  temperature: float) -> random.Random:
        """A fresh RNG derived from the model seed and the call inputs.

        Identical calls draw identical samples regardless of call
        history — the property the serving layer's caches and
        single-flight deduplication rely on for byte-for-byte
        equality between batched/cached and sequential execution.
        (``sample_many`` still passes one explicit RNG across its
        samples, so multi-sample draws stay diverse.)
        """
        digest = hashlib.sha256(repr(
            (self._seed, question, tuple(contexts), round(temperature, 9))
        ).encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    # ------------------------------------------------------------------
    def _extract_core(self, sentence: str,
                      matches: Sequence[PatternMatch],
                      kind: str) -> Optional[str]:
        if kind == ANSWER_NUMERIC:
            for want in (KIND_PERCENT, KIND_MONEY, KIND_NUMBER):
                for m in matches:
                    if m.kind == want:
                        return m.text
            return None
        if kind == ANSWER_DATE:
            for m in matches:
                if m.kind in (KIND_DATE, KIND_QUARTER):
                    return m.text
            return None
        # entity / freeform: return the sentence clause itself
        return sentence.strip().rstrip(".")

    def _candidates(self, question: str, contexts: Sequence[str],
                    kind: str) -> List[_Candidate]:
        focus = set(_focus_stems(question))
        cands: List[_Candidate] = []
        if not focus:
            return cands
        for idx, context in enumerate(contexts):
            for sentence, stems, matches in _context_sentences(context):
                overlap = len(focus & stems) / len(focus)
                if overlap <= 0.0:
                    continue
                core = self._extract_core(sentence, matches, kind)
                if core is None:
                    continue
                cands.append(_Candidate(sentence, idx, overlap, core))
        cands.sort(key=lambda c: (-c.score, c.context_index))
        return cands

    @staticmethod
    def _confidence(cands: List[_Candidate]) -> float:
        if not cands:
            return 0.0
        best = cands[0].score
        runner = cands[1].score if len(cands) > 1 else 0.0
        # High when the best clearly dominates and matches well.
        margin = best - runner
        return max(0.0, min(1.0, 0.6 * best + 0.8 * margin))

    def _verbalize(self, core: str, rng: random.Random,
                   temperature: float) -> str:
        if temperature < 0.3:
            template = _PARAPHRASE_TEMPLATES[0]
        else:
            template = rng.choice(_PARAPHRASE_TEMPLATES)
            # Unit verbalization: "20%" ↔ "20 percent" — same meaning,
            # different surface (defeats purely lexical overlap).
            if core.endswith("%") and rng.random() < 0.3:
                core = core[:-1].strip() + " percent"
        return template.format(core=core)

    def _token_logprobs(self, text: str, confidence: float,
                        rng: random.Random) -> Tuple[float, ...]:
        # Confident, grounded generations get higher per-token
        # probability, but the coupling is deliberately loose: a real
        # LM's token probabilities only partially track truth (fluent
        # hallucinations score high, correct-but-rare phrasings low).
        # The per-call shift models that decoupled fluency component.
        base = -0.4 - 0.45 * (1.0 - confidence) + rng.gauss(0.0, 0.6)
        out = []
        for _ in words(text) or [""]:
            jitter = rng.gauss(0.0, 0.5)
            out.append(min(-1e-4, base + jitter))
        return tuple(out)

    # ------------------------------------------------------------------
    def generate(self, question: str, contexts: Sequence[str],
                 temperature: float = 0.7,
                 rng: Optional[random.Random] = None) -> Generation:
        """Sample one answer for *question* over *contexts*.

        With strong support the extracted fact is returned under a
        paraphrase template; with weak support the generator may pick a
        lower-ranked candidate or fabricate, with probability rising in
        ``temperature`` and ``hallucination_bias``.
        """
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self._meter.charge(GENERATION_CALLS)
        rng = rng or self._call_rng(question, contexts, temperature)
        kind = classify_answer_kind(question)
        cands = self._candidates(question, contexts, kind)
        confidence = self._confidence(cands)

        fabricate_p = max(
            0.0,
            min(0.95, self._bias + (1.0 - confidence) * 0.35 * temperature),
        )
        if not cands or rng.random() < fabricate_p:
            return self._fabricate(question, cands, kind, rng, temperature,
                                   confidence)

        # Pick among top candidates with temperature-scaled weights.
        # The sharpness constant makes low temperatures near-greedy
        # (extractive-reader behaviour) while high temperatures still
        # diversify — the dynamic E3's entropy signal relies on.
        top = cands[: min(4, len(cands))]
        sharpness = 14.0
        weights = [
            math.exp(sharpness * c.score / max(temperature, 1e-6))
            for c in top
        ]
        total = sum(weights)
        pick = rng.random() * total
        acc = 0.0
        chosen = top[0]
        for cand, weight in zip(top, weights):
            acc += weight
            if pick <= acc:
                chosen = cand
                break
        text = self._verbalize(chosen.core, rng, temperature)
        return Generation(
            text=text,
            token_logprobs=self._token_logprobs(text, confidence, rng),
            grounded=True,
            support=(chosen.context_index,),
            confidence=confidence,
        )

    def _fabricate(self, question: str, cands: List[_Candidate], kind: str,
                   rng: random.Random, temperature: float,
                   confidence: float) -> Generation:
        if kind in (ANSWER_NUMERIC, ANSWER_DATE):
            core = rng.choice(_FABRICATED_NUMBERS)
        elif cands:
            core = rng.choice(cands).core
        else:
            focus = content_words(question)[:3]
            core = "it depends on " + (" ".join(focus) or "the context")
        text = self._verbalize(core, rng, temperature)
        # Fabrications are *fluent*: their token probabilities look like
        # a confident answer's even though nothing grounds them — the
        # "plausible but ungrounded" failure the paper highlights, and
        # the reason predictive entropy is fooled where semantic
        # entropy is not (E3).
        fluency = 0.85
        return Generation(
            text=text,
            token_logprobs=self._token_logprobs(text, fluency, rng),
            grounded=False,
            support=(),
            confidence=confidence * 0.5,
        )

    def sample_many(self, question: str, contexts: Sequence[str],
                    n_samples: int, temperature: float = 0.9,
                    seed: Optional[int] = None) -> List[Generation]:
        """Draw *n_samples* independent answers (the E3 protocol)."""
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if seed is None:
            rng = self._call_rng(question, contexts, temperature)
        else:
            rng = random.Random(seed)
        return [
            self.generate(question, contexts, temperature, rng)
            for _ in range(n_samples)
        ]
