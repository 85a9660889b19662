"""Calibration analysis: does an uncertainty score predict errors?

The headline statistic is AUROC of "score predicts the answer is
wrong" (higher = the uncertainty measure ranks wrong answers above
right ones); accuracy at coverage shows accuracy when the
most-uncertain questions are refused.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..errors import EntropyError


def auroc(scores: Sequence[float], is_error: Sequence[bool]) -> float:
    """Area under the ROC curve for error prediction.

    Computed via the Mann–Whitney U statistic with tie correction:
    P(score_error > score_correct) + 0.5·P(equal). Returns 0.5 when
    one class is empty (uninformative).
    """
    if len(scores) != len(is_error):
        raise EntropyError("scores and labels must align")
    errors = [s for s, e in zip(scores, is_error) if e]
    corrects = [s for s, e in zip(scores, is_error) if not e]
    if not errors or not corrects:
        return 0.5
    wins = 0.0
    for err_score in errors:
        for cor_score in corrects:
            if err_score > cor_score:
                wins += 1.0
            elif err_score == cor_score:
                wins += 0.5
    return wins / (len(errors) * len(corrects))


def accuracy_at_coverage(scores: Sequence[float], is_error: Sequence[bool],
                         coverage: float) -> float:
    """Accuracy when only the most-certain *coverage* fraction answers."""
    if not 0.0 < coverage <= 1.0:
        raise EntropyError("coverage must be in (0, 1]")
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    keep = max(1, round(len(order) * coverage))
    kept = order[:keep]
    return sum(1 for i in kept if not is_error[i]) / len(kept)


def compare_methods(
    method_scores: Dict[str, Sequence[float]],
    is_error: Sequence[bool],
) -> Dict[str, float]:
    """AUROC per uncertainty method, for the E3 results table."""
    return {
        name: auroc(scores, is_error)
        for name, scores in method_scores.items()
    }
