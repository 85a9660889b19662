"""Regex-based surface patterns for measure-like entities.

These implement the paper's examples directly: spotting "Q2" as a
time-related entity, "20%" as a change measure, "$1,299" as money, and
ISO dates/IDs in clinical notes. Pattern hits feed both the NER tagger
and the relational-table generator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

# Entity-kind constants shared with repro.text.ner and repro.extraction.
KIND_PERCENT = "PERCENT"
KIND_MONEY = "MONEY"
KIND_DATE = "DATE"
KIND_QUARTER = "QUARTER"
KIND_NUMBER = "NUMBER"
KIND_ID = "ID"
KIND_YEAR = "YEAR"

_MONTH = (
    "january|february|march|april|may|june|july|august|september|"
    "october|november|december|jan|feb|mar|apr|jun|jul|aug|sep|sept|"
    "oct|nov|dec"
)

_PATTERNS = [
    (KIND_PERCENT, re.compile(r"[-+]?\d+(?:\.\d+)?\s?%")),
    (KIND_MONEY, re.compile(r"\$\s?\d+(?:,\d{3})*(?:\.\d+)?(?:\s?(?:million|billion|k|m|bn))?", re.IGNORECASE)),
    (KIND_DATE, re.compile(r"\b\d{4}-\d{2}-\d{2}\b")),
    (KIND_DATE, re.compile(r"\b(?:%s)\.?\s+\d{1,2}(?:st|nd|rd|th)?,?\s+\d{4}\b" % _MONTH, re.IGNORECASE)),
    (KIND_QUARTER, re.compile(r"\bQ[1-4](?:\s+\d{4})?\b")),
    (KIND_QUARTER, re.compile(r"\b(?:first|second|third|fourth)\s+quarter(?:\s+of\s+\d{4})?\b", re.IGNORECASE)),
    (KIND_ID, re.compile(r"\b(?:PAT|CUST|PROD|ORD|TRIAL|DRUG|SKU|DOC)-\d+\b")),
    (KIND_YEAR, re.compile(r"\b(?:19|20)\d{2}\b")),
    (KIND_NUMBER, re.compile(r"\b\d+(?:,\d{3})*(?:\.\d+)?\b")),
]

_YEAR_IN_RE = re.compile(r"(19|20)\d{2}")
_QUARTER_NUMBER_RE = re.compile(r"q([1-4])")

_WORD_QUARTERS = {
    "first quarter": "Q1",
    "second quarter": "Q2",
    "third quarter": "Q3",
    "fourth quarter": "Q4",
}


@dataclass(frozen=True)
class PatternMatch:
    """A pattern hit with its kind, surface text and offsets."""

    kind: str
    text: str
    start: int
    end: int

    @property
    def span(self):
        """(start, end) character span."""
        return (self.start, self.end)


def find_patterns(text: str) -> List[PatternMatch]:
    """Find all measure-like entities in *text*, longest-match-first.

    Overlapping matches are resolved in pattern priority order (percent
    beats plain number, dates beat years), so "20%" never also yields a
    NUMBER hit for "20".

    >>> [m.kind for m in find_patterns("Q2 sales rose 20%")]
    ['QUARTER', 'PERCENT']
    """
    taken = [False] * len(text)
    matches: List[PatternMatch] = []
    for kind, regex in _PATTERNS:
        for m in regex.finditer(text):
            if any(taken[m.start() : m.end()]):
                continue
            for i in range(m.start(), m.end()):
                taken[i] = True
            matches.append(PatternMatch(kind, m.group(), m.start(), m.end()))
    matches.sort(key=lambda pm: pm.start)
    return matches


def normalize_quarter(text: str) -> str:
    """Canonicalize quarter mentions to "Qn" (optionally "Qn YYYY").

    >>> normalize_quarter("second quarter of 2024")
    'Q2 2024'
    """
    low = text.lower().strip()
    year_match = _YEAR_IN_RE.search(low)
    year = year_match.group() if year_match else ""
    for phrase, canon in _WORD_QUARTERS.items():
        if low.startswith(phrase):
            return (canon + " " + year).strip()
    qmatch = _QUARTER_NUMBER_RE.match(low)
    if qmatch:
        return ("Q%s %s" % (qmatch.group(1), year)).strip()
    return text.strip()


def normalize_percent(text: str) -> float:
    """Parse a percent mention to its float value.

    >>> normalize_percent("+20%")
    20.0
    """
    cleaned = text.replace("%", "").replace(" ", "")
    return float(cleaned)


def extract_first_scalar(text: str) -> "float | None":
    """First numeric value in *text*, scale-aware.

    Money mentions resolve through :func:`normalize_money` so
    "$1.2 million" yields 1200000.0, percents drop their sign mark,
    plain numbers lose their thousands separators.

    >>> extract_first_scalar("The answer is $1.2 million.")
    1200000.0
    """
    for match in find_patterns(text):
        if match.kind == KIND_MONEY:
            try:
                return normalize_money(match.text)
            except ValueError:
                continue
        if match.kind == KIND_PERCENT:
            try:
                return normalize_percent(match.text)
            except ValueError:
                continue
        if match.kind in (KIND_NUMBER, KIND_YEAR):
            cleaned = match.text.replace(",", "")
            # The unsigned NUMBER pattern misses a leading sign.
            if match.start > 0 and text[match.start - 1] in "+-":
                cleaned = text[match.start - 1] + cleaned
            try:
                return float(cleaned)
            except ValueError:
                continue
    return None


def normalize_money(text: str) -> float:
    """Parse a money mention to a float amount in base units.

    Handles thousands separators and scale words (million/billion/k).

    >>> normalize_money("$1.5 million")
    1500000.0
    """
    low = text.lower().replace("$", "").replace(",", "").strip()
    scale = 1.0
    for word, factor in (
        ("billion", 1e9), ("bn", 1e9), ("million", 1e6), ("m", 1e6),
        ("k", 1e3),
    ):
        if low.endswith(word):
            low = low[: -len(word)].strip()
            scale = factor
            break
    return float(low) * scale
