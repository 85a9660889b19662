"""Conversational QA sessions with follow-up resolution.

The paper's conclusion points at "real-time data analytics" as an
application; analysts ask follow-ups, not standalone questions:

    > What is the total sales of the Alpha Widget in Q2?
    > And in Q3?
    > What about the Beta Gadget?

:class:`QASession` keeps the last resolved question frame (entities,
quarter, year) and rewrites elliptical follow-ups into full questions
before handing them to the pipeline. Rewrites are deterministic
substitutions on the previous question — inspectable via the returned
answer's ``metadata["rewritten"]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..slm.model import SmallLanguageModel
from ..text.patterns import KIND_QUARTER, find_patterns, normalize_quarter
from .answer import Answer
from .pipeline import HybridQAPipeline

_FOLLOWUP_RE = re.compile(
    r"^\s*(?:and|what about|how about|same for|now)\b[\s,]*",
    re.IGNORECASE,
)
_MEASURE_KINDS = {"PERCENT", "MONEY", "DATE", "QUARTER", "NUMBER", "ID",
                  "YEAR", "METRIC"}


@dataclass
class _Frame:
    question: str
    entities: List[Tuple[str, str]] = field(default_factory=list)
    # (surface, norm) pairs, in mention order
    quarter: Optional[str] = None       # surface, e.g. "Q2"
    year: Optional[str] = None


class QASession:
    """Stateful wrapper over a built :class:`HybridQAPipeline`."""

    def __init__(self, pipeline: HybridQAPipeline,
                 slm: Optional[SmallLanguageModel] = None):
        self._pipeline = pipeline
        self._slm = slm or pipeline._slm  # noqa: SLF001 (shared model)
        self._last: Optional[_Frame] = None

    # ------------------------------------------------------------------
    def _analyze(self, question: str) -> _Frame:
        frame = _Frame(question)
        for entity in self._slm.tag_entities(question):
            if entity.etype not in _MEASURE_KINDS:
                frame.entities.append((entity.text, entity.norm))
        for match in find_patterns(question):
            if match.kind == KIND_QUARTER and frame.quarter is None:
                parts = normalize_quarter(match.text).split()
                frame.quarter = parts[0]
                if len(parts) > 1:
                    frame.year = parts[1]
        return frame

    def _is_followup(self, question: str, frame: _Frame) -> bool:
        if self._last is None:
            return False
        if _FOLLOWUP_RE.match(question):
            return True
        # Very short fragments carrying only a new slot value.
        word_count = len(question.split())
        has_new_slot = bool(frame.entities) or frame.quarter is not None
        return word_count <= 4 and has_new_slot

    def _rewrite(self, question: str, frame: _Frame) -> str:
        previous = self._last
        rewritten = previous.question
        # Swap quarter when the follow-up names a new one.
        if frame.quarter is not None and previous.quarter is not None:
            rewritten = re.sub(
                r"\b%s\b" % re.escape(previous.quarter), frame.quarter,
                rewritten, flags=re.IGNORECASE,
            )
        # Swap the first entity when the follow-up names a new one.
        if frame.entities and previous.entities:
            old_surface = previous.entities[0][0]
            new_surface = frame.entities[0][0]
            if frame.entities[0][1] != previous.entities[0][1]:
                rewritten = re.sub(
                    re.escape(old_surface), new_surface, rewritten,
                    flags=re.IGNORECASE, count=1,
                )
        return rewritten

    # ------------------------------------------------------------------
    def ask(self, question: str) -> Answer:
        """Answer *question*, resolving it against the session context."""
        frame = self._analyze(question)
        effective = question
        if self._is_followup(question, frame):
            effective = self._rewrite(question, frame)
        answer = self._pipeline.answer(effective)
        if effective != question:
            answer = answer.with_metadata(rewritten=effective)
        # Remember the *resolved* frame so chained follow-ups work.
        self._last = self._analyze(effective)
        return answer

    def reset(self) -> None:
        """Forget the conversation context."""
        self._last = None
