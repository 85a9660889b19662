"""Tests for embeddings and metering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metering import (
    EMBEDDING_CALLS, ROWS_SCANNED, CostMeter,
)
from repro.slm.embeddings import EmbeddingModel


class TestCostMeter:
    def test_charge_and_get(self):
        meter = CostMeter()
        meter.charge(ROWS_SCANNED, 3)
        assert meter.get(ROWS_SCANNED) == 3

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostMeter().charge(ROWS_SCANNED, -1)

    def test_measure_context(self):
        meter = CostMeter()
        meter.charge(ROWS_SCANNED, 10)
        with meter.measure() as work:
            meter.charge(ROWS_SCANNED, 5)
        assert work == {ROWS_SCANNED: 5}

    def test_diff_ignores_unchanged(self):
        meter = CostMeter()
        meter.charge("a", 1)
        before = meter.snapshot()
        meter.charge("b", 2)
        assert meter.diff(before) == {"b": 2}

    def test_reset(self):
        meter = CostMeter()
        meter.charge("a")
        meter.reset()
        assert meter.get("a") == 0

    def test_merge(self):
        m1, m2 = CostMeter(), CostMeter()
        m1.charge("a", 1)
        m2.charge("a", 2)
        m1.merge(m2)
        assert m1.get("a") == 3


class TestEmbeddings:
    def setup_method(self):
        self.model = EmbeddingModel(dim=64, meter=CostMeter())

    def test_deterministic(self):
        a = self.model.embed("quarterly sales increased")
        b = EmbeddingModel(dim=64, meter=CostMeter()).embed(
            "quarterly sales increased"
        )
        assert np.allclose(a, b)

    def test_unit_norm(self):
        v = self.model.embed("sales data")
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self):
        assert np.allclose(self.model.embed(""), 0.0)

    def test_similar_texts_closer_than_unrelated(self):
        sim_related = self.model.similarity(
            "sales increased strongly", "sales increase was strong"
        )
        sim_unrelated = self.model.similarity(
            "sales increased strongly", "the patient received medication"
        )
        assert sim_related > sim_unrelated

    def test_morphological_variants_close(self):
        sim = self.model.similarity("increase", "increased")
        assert sim > 0.8

    def test_meter_charged(self):
        meter = CostMeter()
        model = EmbeddingModel(dim=32, meter=meter)
        model.embed("one")
        model.embed_batch(["two", "three"])
        assert meter.get(EMBEDDING_CALLS) == 3

    def test_batch_shape(self):
        mat = self.model.embed_batch(["a b", "c d", "e f"])
        assert mat.shape == (3, 64)

    def test_empty_batch(self):
        assert self.model.embed_batch([]).shape == (0, 64)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            EmbeddingModel(dim=4)

    def test_invalid_char_weight(self):
        with pytest.raises(ValueError):
            EmbeddingModel(char_weight=1.5)

    @given(st.text(min_size=1, max_size=80))
    @settings(max_examples=25, deadline=None)
    def test_embedding_always_finite(self, text):
        vec = EmbeddingModel(dim=32, meter=CostMeter()).embed(text)
        assert np.all(np.isfinite(vec))
