"""Tests for repro.text.chunker."""

import pytest
from hypothesis import given, strategies as st

from repro.text.chunker import Chunker, ChunkerConfig
from repro.text.tokenizer import words


def make_doc(n_sentences, sentence="Sales for product %d rose in Q2."):
    return " ".join(sentence % i for i in range(n_sentences))


class TestChunker:
    def test_short_doc_single_chunk(self):
        chunks = Chunker().chunk_document("d1", "One sentence only.")
        assert len(chunks) == 1
        assert chunks[0].doc_id == "d1"
        assert chunks[0].position == 0

    def test_empty_doc(self):
        assert Chunker().chunk_document("d1", "   ") == []

    def test_long_doc_splits(self):
        cfg = ChunkerConfig(max_tokens=20, overlap_sentences=0)
        chunks = Chunker(cfg).chunk_document("d1", make_doc(10))
        assert len(chunks) > 1

    def test_chunk_ids_unique(self):
        cfg = ChunkerConfig(max_tokens=20, overlap_sentences=1)
        chunks = Chunker(cfg).chunk_document("d1", make_doc(12))
        ids = [c.chunk_id for c in chunks]
        assert len(ids) == len(set(ids))

    def test_all_sentences_covered(self):
        cfg = ChunkerConfig(max_tokens=15, overlap_sentences=0)
        doc = make_doc(8)
        chunks = Chunker(cfg).chunk_document("d1", doc)
        combined = " ".join(c.text for c in chunks)
        for i in range(8):
            assert ("product %d" % i) in combined

    def test_overlap_repeats_sentences(self):
        cfg = ChunkerConfig(max_tokens=16, overlap_sentences=1)
        chunks = Chunker(cfg).chunk_document("d1", make_doc(8))
        if len(chunks) >= 2:
            # Last sentence of chunk i appears in chunk i+1.
            first_tail = chunks[0].text.rstrip(".").rsplit(".", 1)[-1].strip()
            assert first_tail in chunks[1].text

    def test_token_budget_respected_roughly(self):
        cfg = ChunkerConfig(max_tokens=24, overlap_sentences=0)
        chunks = Chunker(cfg).chunk_document("d1", make_doc(20))
        for chunk in chunks:
            # A chunk may exceed the budget only via one extra sentence.
            assert chunk.n_tokens <= cfg.max_tokens + 12

    def test_single_long_sentence_kept_whole(self):
        sentence = "word " * 200 + "."
        cfg = ChunkerConfig(max_tokens=16)
        chunks = Chunker(cfg).chunk_document("d1", sentence)
        assert len(chunks) == 1

    def test_chunk_corpus_dict(self):
        chunks = Chunker().chunk_corpus({"a": "First. Doc.", "b": "Second."})
        assert {c.doc_id for c in chunks} == {"a", "b"}

    def test_chunk_corpus_pairs(self):
        chunks = Chunker().chunk_corpus([("a", "Txt one."), ("b", "Txt two.")])
        assert {c.doc_id for c in chunks} == {"a", "b"}

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ChunkerConfig(max_tokens=0)
        with pytest.raises(ValueError):
            ChunkerConfig(overlap_sentences=-1)


@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=8, max_value=60))
def test_chunker_covers_all_content(n_sentences, max_tokens):
    cfg = ChunkerConfig(max_tokens=max_tokens, overlap_sentences=0)
    doc = make_doc(n_sentences)
    chunks = Chunker(cfg).chunk_document("d", doc)
    combined = " ".join(c.text for c in chunks)
    combined_words = set(words(combined))
    assert set(words(doc)) <= combined_words
