"""Named-entity recognition via gazetteers, patterns and shape rules.

This is the "lightweight SLM-based tagging" of the paper's Section III.A:
entity spans are found by (1) measure patterns (:mod:`repro.text.patterns`),
(2) caller-supplied gazetteers (product catalogs, drug lists — exactly the
structured side of the lake), and (3) capitalization shape rules for
unknown proper nouns. Deterministic and domain-extensible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import patterns as pat
from .tokenizer import tokenize

# Entity types produced on top of the pattern kinds.
TYPE_PRODUCT = "PRODUCT"
TYPE_PERSON = "PERSON"
TYPE_ORG = "ORG"
TYPE_DRUG = "DRUG"
TYPE_CONDITION = "CONDITION"
TYPE_METRIC = "METRIC"
TYPE_MISC = "MISC"

_METRIC_TERMS = {
    "sales", "revenue", "profit", "margin", "rating", "ratings",
    "satisfaction", "returns", "units", "price", "cost", "growth",
    "efficacy", "dosage", "dose", "adherence", "readmission",
    "mortality", "volume", "share", "conversion",
}

_TITLE_SEQ_RE = re.compile(
    r"\b(?:[A-Z][a-zA-Z0-9&'-]*)(?:\s+[A-Z][a-zA-Z0-9&'-]*)*\b"
)
_WORD_RUN_RE = re.compile(r"\w+")
_SPACES_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class Entity:
    """A recognized entity span.

    ``etype`` is one of the TYPE_*/pattern-kind constants, ``text`` the
    surface span, ``norm`` a canonical form suitable as a graph-node key.
    """

    etype: str
    text: str
    start: int
    end: int
    norm: str

    @property
    def span(self) -> Tuple[int, int]:
        """(start, end) character offsets in the source text."""
        return (self.start, self.end)


def _normalize_surface(text: str) -> str:
    return _SPACES_RE.sub(" ", text.strip()).lower()


@dataclass
class Gazetteer:
    """A mapping from entity type to known surface forms.

    Multi-word phrases are matched case-insensitively and
    longest-match-first.
    """

    entries: Dict[str, List[str]] = field(default_factory=dict)

    def add(self, etype: str, names: Iterable[str]) -> None:
        """Register *names* (surface forms) under *etype*.

        Idempotent: a name already in *etype*'s bucket is skipped (a
        second copy could never claim a span).
        """
        bucket = self.entries.setdefault(etype, [])
        seen = set(bucket)
        for name in names:
            name = name.strip()
            if name and name not in seen:
                seen.add(name)
                bucket.append(name)

    def compiled(self) -> List[Tuple[str, str, "re.Pattern"]]:
        """Return (etype, canonical, regex) triples, longest first."""
        out = []
        for etype, names in self.entries.items():
            for name in names:
                regex = re.compile(
                    r"\b" + re.escape(name) + r"\b", re.IGNORECASE
                )
                out.append((etype, name, regex))
        out.sort(key=lambda item: -len(item[1]))
        return out


class _GazetteerMatcher:
    """Gazetteer hits of a text at the cost of its words.

    Each entry of :meth:`Gazetteer.compiled` that is ASCII and starts
    with a word character can only match where a ``\\w+`` run of the
    text starts, and that run, if ASCII, is the entry's first word up
    to case. So a text's runs are looked up in a first-word index and
    each candidate is verified with the entry's own regex at that
    position, which keeps ``\\b`` and ``IGNORECASE`` as they are.

    ``IGNORECASE`` folds some non-ASCII letters onto ASCII ones where
    ``str.lower`` does not, or not alike (long s, dotless i, dotted
    capital I), so a non-ASCII run tries every indexed entry, and an
    entry the index cannot key (non-ASCII, or not starting with a word
    character) is scanned with ``finditer``. With ASCII text and names a
    call costs O(words) plus the candidates verified, independent of
    the gazetteer's size.
    """

    def __init__(self, compiled: List[Tuple[str, str, "re.Pattern"]]):
        self._compiled = compiled
        self._by_first_word: Dict[str, List[int]] = {}
        self._indexed: List[int] = []
        self._scanned: List[int] = []
        for rank, (_, name, _) in enumerate(compiled):
            first = _WORD_RUN_RE.match(name)
            if first is not None and name.isascii():
                self._by_first_word.setdefault(
                    first.group().lower(), []).append(rank)
                self._indexed.append(rank)
            else:
                self._scanned.append(rank)

    def hits(self, text: str) -> Iterator[Tuple[str, str, "re.Match"]]:
        """(etype, canonical, match) in the per-entry ``finditer`` order.

        That order is entry rank (longest first), then left to right,
        with a match that starts before the entry's previous match
        ended skipped, as ``finditer`` does.
        """
        found: Dict[int, List["re.Match"]] = {}
        for run in _WORD_RUN_RE.finditer(text):
            word = run.group()
            if word.isascii():
                ranks = self._by_first_word.get(word.lower())
                if ranks is None:
                    continue
            else:
                ranks = self._indexed
            pos = run.start()
            for rank in ranks:
                m = self._compiled[rank][2].match(text, pos)
                if m is not None:
                    found.setdefault(rank, []).append(m)
        for rank in self._scanned:
            found[rank] = list(self._compiled[rank][2].finditer(text))
        for rank in sorted(found):
            etype, canonical, _ = self._compiled[rank]
            last_end = 0
            for m in found[rank]:
                if m.start() >= last_end:
                    last_end = m.end()
                    yield etype, canonical, m


class EntityRecognizer:
    """Combine pattern, gazetteer and shape-based entity spotting.

    Parameters
    ----------
    gazetteer:
        Optional :class:`Gazetteer` of known entity names. Benchmarks
        populate it from the structured side of the synthetic data lake
        (product names, drug names) — mirroring how the paper grounds
        unstructured mentions against structured records.
    shape_entities:
        When True, unmatched capitalized multi-word sequences become
        ``MISC`` entities, which keeps recall on unseen proper nouns.
    """

    def __init__(self, gazetteer: Optional[Gazetteer] = None,
                 shape_entities: bool = True):
        self._gazetteer = gazetteer or Gazetteer()
        self._matcher = _GazetteerMatcher(self._gazetteer.compiled())
        self._shape_entities = shape_entities

    def add_gazetteer(self, etype: str, names: Iterable[str]) -> None:
        """Extend the gazetteer in place and recompile matchers."""
        self._gazetteer.add(etype, names)
        self._matcher = _GazetteerMatcher(self._gazetteer.compiled())

    @property
    def gazetteer(self) -> Gazetteer:
        """The underlying gazetteer (for serialization)."""
        return self._gazetteer

    def recognize(self, text: str) -> List[Entity]:
        """Return all entities in *text*, sorted by start offset.

        Resolution order: measure patterns, then gazetteer hits, then
        metric terms, then (optionally) capitalized-shape spans. Later
        stages never overlap spans claimed by earlier ones.
        """
        taken = [False] * len(text)
        entities: List[Entity] = []

        def claim(start: int, end: int) -> bool:
            if any(taken[start:end]):
                return False
            for i in range(start, end):
                taken[i] = True
            return True

        for match in pat.find_patterns(text):
            if match.kind == pat.KIND_NUMBER:
                continue  # bare numbers are values, not entities
            if claim(match.start, match.end):
                norm = match.text
                if match.kind == pat.KIND_QUARTER:
                    norm = pat.normalize_quarter(match.text)
                entities.append(
                    Entity(match.kind, match.text, match.start, match.end,
                           _normalize_surface(norm))
                )

        for etype, canonical, m in self._matcher.hits(text):
            if claim(m.start(), m.end()):
                entities.append(
                    Entity(etype, m.group(), m.start(), m.end(),
                           _normalize_surface(canonical))
                )

        for token in tokenize(text):
            low = token.text.lower()
            if low in _METRIC_TERMS and claim(token.start, token.end):
                entities.append(
                    Entity(TYPE_METRIC, token.text, token.start, token.end,
                           low)
                )

        if self._shape_entities:
            for m in _TITLE_SEQ_RE.finditer(text):
                span_text = m.group()
                if len(span_text) < 2 or span_text.lower() in ("the", "a"):
                    continue
                if m.start() == 0 and " " not in span_text:
                    continue  # sentence-initial single word: too noisy
                if claim(m.start(), m.end()):
                    entities.append(
                        Entity(TYPE_MISC, span_text, m.start(), m.end(),
                               _normalize_surface(span_text))
                    )

        entities.sort(key=lambda e: e.start)
        return entities
