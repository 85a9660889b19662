"""Deterministic text embeddings via hashed random projections.

This stands in for the SLM's encoder. Each token deterministically maps
to a fixed unit vector (seeded by a stable hash of the token), and a
text embeds as the normalised sum of its content-token vectors plus
a character-trigram component that gives morphologically related tokens
("increase"/"increased") nearby vectors. Cosine similarity over these
embeddings behaves like a classic distributional model: texts sharing
vocabulary and morphology are close; unrelated texts are near-orthogonal.

Why this is a faithful substitute: every experiment in the paper uses
embeddings only through *relative similarity* (dense retrieval ranking,
answer clustering). Hashed projections preserve exactly that structure
while being reproducible offline without model weights.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np

from ..caching import CostAwareLRU
from ..metering import EMBEDDING_CALLS, CostMeter, GLOBAL_METER
from ..text.stemmer import stem
from ..text.stopwords import content_words


def _stable_seed(key: str) -> int:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _unit_vector(key: str, dim: int) -> np.ndarray:
    rng = np.random.default_rng(_stable_seed(key))
    vec = rng.standard_normal(dim)
    norm = np.linalg.norm(vec)
    return vec / norm


def _char_trigrams(token: str) -> List[str]:
    padded = "#%s#" % token
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


class EmbeddingModel:
    """Deterministic sentence/text embedder.

    Parameters
    ----------
    dim:
        Embedding dimensionality (default 128: small, SLM-like).
    char_weight:
        Relative weight of the character-trigram component; 0 disables
        it (pure bag-of-words hashing).
    meter:
        Cost meter charged one ``embedding_calls`` unit per embedded
        text — the unit the E1 efficiency bench counts.
    token_cache_size:
        Bound (in entries) of the per-token vector memo. Token vectors
        are pure functions of the token, so the cache only trades
        recomputation for memory; bounding it keeps a long-lived
        serving process from growing without limit on adversarial or
        high-churn vocabularies.
    """

    def __init__(self, dim: int = 128, char_weight: float = 0.35,
                 meter: Optional[CostMeter] = None,
                 token_cache_size: int = 4096):
        if dim < 8:
            raise ValueError("dim must be >= 8")
        if not 0.0 <= char_weight <= 1.0:
            raise ValueError("char_weight must be within [0, 1]")
        self.dim = dim
        self._char_weight = char_weight
        self._meter = meter if meter is not None else GLOBAL_METER
        self._token_cache = CostAwareLRU(capacity=token_cache_size,
                                         name="slm.token_vectors")

    # ------------------------------------------------------------------
    # Embedding
    # ------------------------------------------------------------------
    def _token_vector(self, token: str) -> np.ndarray:
        cached = self._token_cache.get(token)
        if cached is not None:
            return cached
        base = _unit_vector("tok:" + stem(token), self.dim)
        if self._char_weight > 0.0:
            tri = np.zeros(self.dim)
            trigrams = _char_trigrams(token)
            for gram in trigrams:
                tri += _unit_vector("tri:" + gram, self.dim)
            if trigrams:
                tri /= np.linalg.norm(tri) or 1.0
            vec = (1.0 - self._char_weight) * base + self._char_weight * tri
        else:
            vec = base
        vec = vec / (np.linalg.norm(vec) or 1.0)
        self._token_cache.put(token, vec)
        return vec

    def embed(self, text: str) -> np.ndarray:
        """Embed *text* into a unit vector (zero vector for empty text)."""
        self._meter.charge(EMBEDDING_CALLS)
        terms = content_words(text)
        if not terms:
            return np.zeros(self.dim)
        acc = np.zeros(self.dim)
        for term in terms:
            acc += self._token_vector(term)
        norm = np.linalg.norm(acc)
        if norm == 0.0:
            return acc
        return acc / norm

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed many texts into an (n, dim) matrix."""
        if not texts:
            return np.zeros((0, self.dim))
        return np.stack([self.embed(t) for t in texts])

    @staticmethod
    def cosine(a: np.ndarray, b: np.ndarray) -> float:
        """Cosine similarity, safe for zero vectors."""
        denom = (np.linalg.norm(a) * np.linalg.norm(b)) or 1.0
        return float(np.dot(a, b) / denom)

    def similarity(self, text_a: str, text_b: str) -> float:
        """Cosine similarity of two texts' embeddings."""
        return self.cosine(self.embed(text_a), self.embed(text_b))
