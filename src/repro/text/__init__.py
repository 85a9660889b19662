"""Text-processing substrate: tokenization, stemming, POS, NER, chunking.

These are the deterministic NLP primitives the simulated SLM and the
extraction/retrieval layers are built on.
"""

from .chunker import Chunk, Chunker, ChunkerConfig
from .ner import Entity, EntityRecognizer, Gazetteer
from .patterns import PatternMatch, find_patterns
from .pos import TaggedToken, tag, tag_tokens
from .stemmer import stem
from .stopwords import STOPWORDS, content_stems, content_words
from .tokenizer import Token, ngrams, split_sentences, tokenize, words

__all__ = [
    "Chunk", "Chunker", "ChunkerConfig",
    "Entity", "EntityRecognizer", "Gazetteer",
    "PatternMatch", "find_patterns",
    "TaggedToken", "tag", "tag_tokens",
    "stem",
    "STOPWORDS", "content_stems", "content_words",
    "Token", "ngrams", "split_sentences", "tokenize", "words",
]
