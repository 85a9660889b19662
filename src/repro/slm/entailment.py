"""Lightweight textual entailment / equivalence judging.

Semantic entropy (Kuhn et al. 2023) clusters sampled answers by
*bidirectional entailment*. The full method queries an NLI model; this
module provides the SLM-scale stand-in: stemmed content-token coverage,
numeric-value agreement and negation-polarity checks. It is symmetric
enough for clustering yet directional (a ⊨ b ≠ b ⊨ a) like real NLI.
"""

from __future__ import annotations

import re
from typing import Optional, Set

from ..metering import ENTAILMENT_CALLS, CostMeter, GLOBAL_METER
from ..text.stemmer import stem
from ..text.stopwords import content_words
from ..text.tokenizer import words

ENTAILMENT = "entailment"
NEUTRAL = "neutral"
CONTRADICTION = "contradiction"

_NEGATIONS = {"not", "no", "never", "cannot", "can't", "won't", "don't",
              "doesn't", "didn't", "isn't", "aren't", "wasn't", "weren't",
              "neither", "nor", "without"}

_NUMBER_RE = re.compile(r"[-+]?\d+(?:,\d{3})*(?:\.\d+)?%?")

# Discourse filler that carries no propositional content ("according to
# the records", "based on the data", "the answer is"); excluded so
# paraphrase templates around the same fact cluster together.
_DISCOURSE_STEMS = frozenset(
    stem(w) for w in (
        "according", "records", "record", "based", "data", "answer",
        "answers", "indicate", "indicates", "reading", "reports",
        "report", "gives", "documents", "document", "point", "points",
        "overall", "roughly", "speaking", "comes", "analysis",
        "available", "figures", "shows", "percent",
    )
)


def _content_stems(text: str) -> Set[str]:
    stems = {
        stem(w) for w in content_words(text)
        if w[:1].isalpha()
        and not any(ch.isdigit() for ch in w)
    }
    return stems - _DISCOURSE_STEMS


def _numbers(text: str) -> Set[str]:
    out = set()
    for raw in _NUMBER_RE.findall(text):
        cleaned = raw.replace(",", "").lstrip("+")
        # "20%" and "20 percent" and bare "20" agree numerically; the
        # unit word is discourse-filtered, so compare bare values.
        out.add(cleaned.rstrip("%"))
    return out


def _negated(text: str) -> bool:
    return any(w in _NEGATIONS for w in words(text))


class EntailmentJudge:
    """Judge whether a premise entails a hypothesis.

    Parameters
    ----------
    coverage_threshold:
        Fraction of hypothesis content stems that must appear in the
        premise to call entailment.
    meter:
        Charged one ``entailment_calls`` unit per judgement, so E3 can
        report the clustering cost of semantic entropy.
    """

    def __init__(self, coverage_threshold: float = 0.7,
                 meter: Optional[CostMeter] = None):
        if not 0.0 < coverage_threshold <= 1.0:
            raise ValueError("coverage_threshold must be in (0, 1]")
        self._threshold = coverage_threshold
        self._meter = meter if meter is not None else GLOBAL_METER

    def judge(self, premise: str, hypothesis: str) -> str:
        """Return ENTAILMENT / NEUTRAL / CONTRADICTION for the pair."""
        self._meter.charge(ENTAILMENT_CALLS)
        prem_stems = _content_stems(premise)
        hyp_stems = _content_stems(hypothesis)
        prem_nums = _numbers(premise)
        hyp_nums = _numbers(hypothesis)

        # Polarity clash on overlapping content → contradiction.
        overlap = prem_stems & hyp_stems
        if overlap and _negated(premise) != _negated(hypothesis):
            return CONTRADICTION
        # Disagreeing numbers over shared topic → contradiction.
        if overlap and prem_nums and hyp_nums and not (prem_nums & hyp_nums):
            return CONTRADICTION

        if not hyp_stems and not hyp_nums:
            return ENTAILMENT  # empty hypothesis is vacuously entailed
        covered = len(overlap)
        total = len(hyp_stems)
        num_ok = (not hyp_nums) or bool(prem_nums & hyp_nums)
        if total == 0:
            return ENTAILMENT if num_ok else NEUTRAL
        coverage = covered / total
        if coverage >= self._threshold and num_ok:
            return ENTAILMENT
        return NEUTRAL

    def entails(self, premise: str, hypothesis: str) -> bool:
        """True when the judgement is ENTAILMENT."""
        return self.judge(premise, hypothesis) == ENTAILMENT

    def equivalent(self, a: str, b: str) -> bool:
        """Bidirectional entailment — the clustering relation of E3."""
        return self.entails(a, b) and self.entails(b, a)
