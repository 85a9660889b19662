"""Natural-language query intent analysis.

First stage of Semantic Operator Synthesis (paper III.C task 2): the
question's surface is parsed into an :class:`IntentFrame` — aggregate
intent, comparison phrases, time filters, grouping cues and candidate
entity/column terms — before any schema binding happens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..text.patterns import (
    KIND_QUARTER, KIND_YEAR, find_patterns, normalize_quarter,
)
from ..text.stemmer import stem
from ..text.stopwords import STOPWORDS, content_words
from ..text.tokenizer import words

# Aggregate cue → function, in priority order (first match wins).
_AGG_CUES: Tuple[Tuple[str, str], ...] = (
    ("how many", "count"),
    ("number of", "count"),
    ("count", "count"),
    ("total", "sum"),
    ("sum of", "sum"),
    ("overall", "sum"),
    ("average", "avg"),
    ("mean", "avg"),
    ("highest", "max"),
    ("maximum", "max"),
    ("largest", "max"),
    ("most expensive", "max"),
    ("lowest", "min"),
    ("minimum", "min"),
    ("smallest", "min"),
    ("cheapest", "min"),
)

_COMPARISON_RES: Tuple[Tuple[str, "re.Pattern"], ...] = (
    (">", re.compile(
        r"(?:more than|greater than|above|over|exceeding|at least)\s+"
        r"([-+]?\d+(?:\.\d+)?)\s*(%|percent)?", re.IGNORECASE)),
    ("<", re.compile(
        r"(?:less than|fewer than|below|under|at most)\s+"
        r"([-+]?\d+(?:\.\d+)?)\s*(%|percent)?", re.IGNORECASE)),
    ("=", re.compile(
        r"(?:equal to|exactly)\s+([-+]?\d+(?:\.\d+)?)\s*(%|percent)?",
        re.IGNORECASE)),
)

_RANGE_RE = re.compile(
    r"between\s+([-+]?\d+(?:\.\d+)?)\s*(%|percent)?\s+and\s+"
    r"([-+]?\d+(?:\.\d+)?)\s*(%|percent)?", re.IGNORECASE,
)

_GROUP_RES = (
    re.compile(r"\b(?:per|by|for each|for every|of each|across)\s+"
               r"([a-z][a-z_ ]{2,30}?)(?:\s+(?:in|with|that|who|which|and)\b|[?.,]|$)",
               re.IGNORECASE),
)

_TOPK_RE = re.compile(r"\btop\s+(\d+)\b", re.IGNORECASE)

_LIST_CUES = ("list", "show", "which", "what are", "find all", "name the")

_SUPERLATIVE_MAX = ("highest", "largest", "greatest", "most expensive",
                    "best", "biggest", "maximum")
_SUPERLATIVE_MIN = ("lowest", "smallest", "cheapest", "least expensive",
                    "minimum", "worst")
_ENTITY_QUESTION_RE = re.compile(r"^\s*(which|what|who)\b", re.IGNORECASE)


@dataclass(frozen=True)
class Comparison:
    """A numeric comparison phrase: op, value, and whether it was a %."""

    op: str
    value: float
    is_percent: bool
    context: str  # words immediately before the phrase, for binding


@dataclass(frozen=True)
class IntentFrame:
    """Schema-agnostic analysis of one NL question (a frozen value)."""

    question: str
    aggregate: Optional[str] = None
    metric_terms: Tuple[str, ...] = ()
    comparisons: Tuple[Comparison, ...] = ()
    quarter: Optional[str] = None
    year: Optional[int] = None
    group_term: Optional[str] = None
    limit: Optional[int] = None
    wants_list: bool = False
    superlative: Optional[str] = None   # 'max' | 'min' when present
    wants_entity: bool = False          # which/what/who question form
    content_terms: Tuple[str, ...] = ()

    @property
    def is_aggregate(self) -> bool:
        """True when an aggregate cue was found."""
        return self.aggregate is not None


def _detect_aggregate(low: str) -> Optional[str]:
    for cue, func in _AGG_CUES:
        if cue in low:
            return func
    return None


def _detect_comparisons(question: str) -> List[Comparison]:
    comparisons = []
    claimed = []
    # Ranges first: "between 10 and 20" becomes >= low and <= high, and
    # its span must not be re-read as two bare comparisons.
    for match in _RANGE_RE.finditer(question):
        low_v, high_v = float(match.group(1)), float(match.group(3))
        if low_v > high_v:
            low_v, high_v = high_v, low_v
        prefix = question[: match.start()].strip()
        context_words = [
            w for w in words(prefix)[-6:] if w not in STOPWORDS
        ]
        context = " ".join(context_words)
        is_percent = bool(match.group(2) or match.group(4))
        comparisons.append(Comparison(">=", low_v, is_percent, context))
        comparisons.append(Comparison("<=", high_v, is_percent, context))
        claimed.append((match.start(), match.end()))
    for op, regex in _COMPARISON_RES:
        for match in regex.finditer(question):
            if any(s <= match.start() < e for s, e in claimed):
                continue
            prefix = question[: match.start()].strip()
            context_words = [
                w for w in words(prefix)[-6:] if w not in STOPWORDS
            ]
            comparisons.append(Comparison(
                op=op,
                value=float(match.group(1)),
                is_percent=bool(match.group(2)),
                context=" ".join(context_words),
            ))
    return comparisons


def _detect_group(low: str) -> Optional[str]:
    for regex in _GROUP_RES:
        match = regex.search(low)
        if match:
            term = match.group(1).strip()
            term_words = [w for w in term.split() if w not in STOPWORDS]
            if term_words:
                return " ".join(term_words[:2])
    return None


_METRIC_WORDS = frozenset(
    "sales revenue profit margin rating ratings price cost amount units "
    "satisfaction returns growth efficacy dosage count orders quantity "
    "change score visits stay duration age increase decrease".split()
)
_METRIC_STEMS = frozenset(stem(m) for m in _METRIC_WORDS)


def _detect_superlative(low: str) -> Optional[str]:
    for cues, direction in ((_SUPERLATIVE_MAX, "max"),
                            (_SUPERLATIVE_MIN, "min")):
        if any(cue in low for cue in cues):
            return direction
    return None


def analyze(question: str) -> IntentFrame:
    """Parse *question* into an :class:`IntentFrame`.

    >>> frame = analyze("Find the total sales of all products in Q3")
    >>> frame.aggregate, frame.quarter
    ('sum', 'Q3')
    """
    low = question.lower()
    wants_entity = bool(_ENTITY_QUESTION_RE.match(question))
    superlative = _detect_superlative(low)
    aggregate = _detect_aggregate(low)
    if superlative is not None and wants_entity \
            and aggregate in ("max", "min"):
        # "Which product has the highest price?" asks for the entity,
        # not the MAX value — suppress the aggregate reading when the
        # cue word doubles as an aggregate cue.
        aggregate = None
    top_match = _TOPK_RE.search(question)

    quarter: Optional[str] = None
    year: Optional[int] = None
    for match in find_patterns(question):
        if match.kind == KIND_QUARTER and quarter is None:
            parts = normalize_quarter(match.text).split()
            quarter = parts[0]
            if len(parts) > 1:
                year = int(parts[1])
        elif match.kind == KIND_YEAR and year is None:
            year = int(match.text)

    content_terms = tuple(content_words(low))
    metric_terms = [
        t for t in content_terms
        if t in _METRIC_WORDS or stem(t) in _METRIC_STEMS
    ]
    # Price is implicit in cheap/expensive superlatives.
    if superlative and ("cheap" in low or "expensive" in low) \
            and "price" not in metric_terms:
        metric_terms.append("price")
    return IntentFrame(
        question=question,
        aggregate=aggregate,
        metric_terms=tuple(metric_terms),
        comparisons=tuple(_detect_comparisons(question)),
        quarter=quarter,
        year=year,
        group_term=_detect_group(low),
        limit=int(top_match.group(1)) if top_match else None,
        wants_list=any(low.startswith(c) or (" " + c) in low
                       for c in _LIST_CUES),
        superlative=superlative,
        wants_entity=wants_entity,
        content_terms=content_terms,
    )
