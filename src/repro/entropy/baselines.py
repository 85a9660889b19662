"""Traditional uncertainty baselines semantic entropy is compared to.

E3 contrasts semantic entropy against: predictive (token) entropy, its
length-normalized form, lexical-similarity dispersion, and answer
length — the same baseline family as Kuhn et al.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import EntropyError
from ..slm.generator import Generation
from ..text.stopwords import content_stems
from ..text.tokenizer import words


def _check_nonempty(generations: Sequence[Generation]) -> None:
    if not generations:
        raise EntropyError("need at least one generation")


def predictive_entropy(generations: Sequence[Generation]) -> float:
    """Mean negative sequence log-probability across samples."""
    _check_nonempty(generations)
    return sum(-g.logprob for g in generations) / len(generations)


def length_normalized_entropy(generations: Sequence[Generation]) -> float:
    """Mean negative *per-token* log-probability across samples."""
    _check_nonempty(generations)
    return sum(-g.mean_logprob for g in generations) / len(generations)


def lexical_dissimilarity(generations: Sequence[Generation]) -> float:
    """1 − mean pairwise Jaccard overlap of answer token sets.

    High when samples share little vocabulary — a cheap, meaning-blind
    proxy for divergence (it cannot tell paraphrases from conflicts).
    """
    _check_nonempty(generations)
    sets = [set(content_stems(g.text)) for g in generations]
    n = len(sets)
    if n == 1:
        return 0.0
    total = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            union = sets[i] | sets[j]
            if union:
                total += len(sets[i] & sets[j]) / len(union)
            else:
                total += 1.0
            pairs += 1
    return 1.0 - total / pairs


def mean_answer_length(generations: Sequence[Generation]) -> float:
    """Mean token length of the sampled answers (a null baseline)."""
    _check_nonempty(generations)
    return sum(len(words(g.text)) for g in generations) / len(generations)


BASELINES = {
    "predictive_entropy": predictive_entropy,
    "length_normalized_entropy": length_normalized_entropy,
    "lexical_dissimilarity": lexical_dissimilarity,
    "answer_length": mean_answer_length,
}


def all_baselines(generations: Sequence[Generation]) -> dict:
    """Every baseline score for one sample set."""
    return {
        name: fn(generations) for name, fn in BASELINES.items()
    }
