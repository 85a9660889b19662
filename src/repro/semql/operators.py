"""LOTUS-style semantic operators over result sets.

Extend the relational model with natural-language-criterion operators
(paper Section II.B): filtering, ranking and classifying rows
by *meaning*, scored with the SLM's embeddings rather than exact
matches. Every operator takes and returns a :class:`ResultSet`, so
semantic and classical operators compose freely.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..errors import SynthesisError
from ..slm.model import SmallLanguageModel
from ..storage.relational.executor import ResultSet


def _row_text(columns: Sequence[str], row: Sequence[Any],
              use_columns: Optional[Sequence[str]] = None) -> str:
    parts = []
    for name, value in zip(columns, row):
        if use_columns is not None and name not in use_columns:
            continue
        if value is None:
            continue
        parts.append("%s: %s" % (name, value))
    return "; ".join(parts)


class SemanticOperators:
    """Semantic operator suite bound to one SLM."""

    def __init__(self, slm: SmallLanguageModel,
                 similarity_threshold: float = 0.18):
        if not -1.0 <= similarity_threshold <= 1.0:
            raise SynthesisError("threshold must be a cosine in [-1, 1]")
        self._slm = slm
        self._threshold = similarity_threshold

    # ------------------------------------------------------------------
    def sem_filter(self, result: ResultSet, criterion: str,
                   columns: Optional[Sequence[str]] = None,
                   threshold: Optional[float] = None) -> ResultSet:
        """Keep rows semantically matching *criterion*.

        >>> # rows whose review text talks about battery problems
        >>> # ops.sem_filter(rs, "complains about battery life")
        """
        limit = self._threshold if threshold is None else threshold
        criterion_vec = self._slm.embed(criterion)
        kept = []
        for row in result.rows:
            text = _row_text(result.columns, row, columns)
            if not text:
                continue
            sim = self._slm.embedder.cosine(
                criterion_vec, self._slm.embed(text)
            )
            if sim >= limit:
                kept.append(row)
        return ResultSet(result.columns, kept)

    def sem_topk(self, result: ResultSet, criterion: str, k: int,
                 columns: Optional[Sequence[str]] = None) -> ResultSet:
        """The *k* rows most semantically similar to *criterion*."""
        if k < 1:
            raise SynthesisError("k must be >= 1")
        criterion_vec = self._slm.embed(criterion)
        scored: List[Tuple[float, int]] = []
        for i, row in enumerate(result.rows):
            text = _row_text(result.columns, row, columns)
            sim = self._slm.embedder.cosine(
                criterion_vec, self._slm.embed(text)
            )
            scored.append((sim, i))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        rows = [result.rows[i] for _, i in scored[:k]]
        return ResultSet(result.columns, rows)

    def sem_classify(self, result: ResultSet, labels: Sequence[str],
                     columns: Optional[Sequence[str]] = None,
                     output_column: str = "label") -> ResultSet:
        """Append the nearest NL label to each row (zero-shot classify)."""
        if not labels:
            raise SynthesisError("need at least one label")
        label_vecs = [(label, self._slm.embed(label)) for label in labels]
        out_rows = []
        for row in result.rows:
            text = _row_text(result.columns, row, columns)
            vec = self._slm.embed(text)
            best = max(
                label_vecs,
                key=lambda lv: self._slm.embedder.cosine(vec, lv[1]),
            )
            out_rows.append(tuple(row) + (best[0],))
        return ResultSet(list(result.columns) + [output_column], out_rows)
