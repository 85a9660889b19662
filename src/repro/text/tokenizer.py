"""Word and sentence tokenization.

The tokenizer is deliberately rule-based and dependency-free: the paper's
SLM performs "lightweight tagging", and every downstream component
(BM25, NER, chunking) consumes these tokens, so behaviour must be
deterministic and cheap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List, Sequence

# Order matters: longer / more specific patterns first.
_TOKEN_RE = re.compile(
    r"""
    \d{4}-\d{2}-\d{2}           # ISO dates stay one token
  | \d+(?:\.\d+)?%              # percentages: 20%, 3.5%
  | \$\d+(?:,\d{3})*(?:\.\d+)?  # money: $1,299.99
  | \d+(?:,\d{3})+(?:\.\d+)?    # grouped numbers: 1,299
  | \d+(?:\.\d+)?               # plain numbers
  | [A-Za-z]+(?:'[A-Za-z]+)?    # words, with internal apostrophe (don't)
  | [^\w\s]                     # any single punctuation mark
    """,
    re.VERBOSE,
)

_SENTENCE_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9\"'(])")

_ABBREVIATIONS = frozenset(
    {
        "dr.", "mr.", "mrs.", "ms.", "prof.", "inc.", "ltd.", "co.",
        "v.", "vs.", "e.g.", "i.e.", "etc.", "fig.", "no.", "st.",
        "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.", "sep.",
        "sept.", "oct.", "nov.", "dec.", "approx.",
    }
)


@dataclass(frozen=True)
class Token:
    """A single token with its character offsets in the source text."""

    text: str
    start: int
    end: int

    def lower(self) -> str:
        """Return the lower-cased surface form."""
        return self.text.lower()

    @property
    def is_word(self) -> bool:
        """True when the token is alphabetic (possibly apostrophized)."""
        return bool(re.fullmatch(r"[A-Za-z]+(?:'[A-Za-z]+)?", self.text))

    @property
    def is_number(self) -> bool:
        """True when the token is numeric (plain or comma-grouped)."""
        return bool(re.fullmatch(r"\d+(?:,\d{3})*(?:\.\d+)?", self.text))


def tokenize(text: str) -> List[Token]:
    """Split *text* into :class:`Token` objects with offsets.

    >>> [t.text for t in tokenize("Q2 sales rose 20%.")]
    ['Q2', 'sales', 'rose', '20%', '.']
    """
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        tokens.append(Token(match.group(), match.start(), match.end()))
    # Re-join alphanumeric identifiers like "Q2" that the regex split
    # into a word followed immediately by digits.
    merged: List[Token] = []
    for tok in tokens:
        if (
            merged
            and merged[-1].end == tok.start
            and merged[-1].is_word
            and re.fullmatch(r"\d+", tok.text)
        ):
            prev = merged.pop()
            merged.append(Token(prev.text + tok.text, prev.start, tok.end))
        else:
            merged.append(tok)
    return merged


def words(text: str, lowercase: bool = True) -> List[str]:
    """Return just the token strings, optionally lower-cased.

    This is the canonical "bag of terms" used by BM25 and the SLM.
    """
    toks = tokenize(text)
    if lowercase:
        return [t.text.lower() for t in toks]
    return [t.text for t in toks]


def split_sentences(text: str) -> List[str]:
    """Split *text* into sentences with a boundary heuristic.

    Avoids splitting after common abbreviations and keeps sentence text
    stripped of surrounding whitespace.

    >>> split_sentences("Sales rose. Margins fell.")
    ['Sales rose.', 'Margins fell.']
    """
    if not text.strip():
        return []
    pieces = _SENTENCE_BOUNDARY_RE.split(text.strip())
    sentences: List[str] = []
    for piece in pieces:
        piece = piece.strip()
        if not piece:
            continue
        if sentences:
            last_word = sentences[-1].rsplit(None, 1)[-1].lower()
            if last_word in _ABBREVIATIONS:
                sentences[-1] = sentences[-1] + " " + piece
                continue
        sentences.append(piece)
    return sentences


def ngrams(tokens: Sequence[str], n: int) -> Iterator[tuple]:
    """Yield the *n*-grams of *tokens* as tuples.

    >>> list(ngrams(["a", "b", "c"], 2))
    [('a', 'b'), ('b', 'c')]
    """
    if n <= 0:
        raise ValueError("n must be positive, got %d" % n)
    for i in range(len(tokens) - n + 1):
        yield tuple(tokens[i : i + n])
