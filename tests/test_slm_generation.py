"""Tests for the entailment judge, answer generator and SLM facade."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runner import build_hybrid_system, generate_lake
from repro.metering import ENTAILMENT_CALLS, GENERATION_CALLS, CostMeter
from repro.slm import generator as generator_module
from repro.slm.entailment import (
    CONTRADICTION, ENTAILMENT, NEUTRAL, EntailmentJudge,
)
from repro.slm.generator import (
    ANSWER_DATE, ANSWER_ENTITY, ANSWER_FREEFORM, ANSWER_NUMERIC,
    CONTEXT_MEMO_SIZE, AnswerGenerator, _Candidate, _context_sentences,
    _focus_stems, classify_answer_kind,
)
from repro.slm.model import SLMConfig, SmallLanguageModel
from repro.text.ner import TYPE_PRODUCT, Gazetteer
from repro.text.patterns import (
    KIND_DATE, KIND_MONEY, KIND_NUMBER, KIND_PERCENT, KIND_QUARTER,
    find_patterns,
)
from repro.text.stopwords import content_stems
from repro.text.tokenizer import split_sentences


class TestEntailment:
    def setup_method(self):
        self.judge = EntailmentJudge(meter=CostMeter())

    def test_identity_entails(self):
        assert self.judge.entails("sales rose 20%", "sales rose 20%")

    def test_paraphrase_equivalent(self):
        assert self.judge.equivalent(
            "sales increased by 20%", "the increase in sales was 20%"
        )

    def test_different_numbers_contradict(self):
        assert self.judge.judge(
            "sales rose 20%", "sales rose 35%"
        ) == CONTRADICTION

    def test_negation_contradicts(self):
        assert self.judge.judge(
            "the drug is effective", "the drug is not effective"
        ) == CONTRADICTION

    def test_unrelated_neutral(self):
        assert self.judge.judge(
            "sales rose 20%", "the patient recovered fully"
        ) == NEUTRAL

    def test_superset_entails_subset(self):
        premise = "quarterly sales of the alpha widget rose 20% in Q2"
        hypothesis = "alpha widget sales rose 20%"
        assert self.judge.entails(premise, hypothesis)

    def test_subset_does_not_entail_superset(self):
        premise = "sales rose"
        hypothesis = "alpha widget quarterly sales rose sharply in europe"
        assert not self.judge.entails(premise, hypothesis)

    def test_meter_charged(self):
        meter = CostMeter()
        EntailmentJudge(meter=meter).judge("a b", "a b")
        assert meter.get(ENTAILMENT_CALLS) == 1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            EntailmentJudge(coverage_threshold=0.0)


class TestAnswerKind:
    @pytest.mark.parametrize("question,kind", [
        ("How much did sales grow?", ANSWER_NUMERIC),
        ("What percent of users churned?", ANSWER_NUMERIC),
        ("When did the trial begin?", ANSWER_DATE),
        ("Which year saw peak revenue?", ANSWER_DATE),
        ("Who prescribed the medication?", ANSWER_ENTITY),
        ("Summarize the findings", ANSWER_FREEFORM),
    ])
    def test_kinds(self, question, kind):
        assert classify_answer_kind(question) == kind


CONTEXTS = [
    "Q2 sales of the Alpha Widget increased 20% over Q1.",
    "Customer complaints about shipping fell slightly.",
    "The Beta Gadget saw flat sales in Q2.",
]


class TestAnswerGenerator:
    def test_grounded_extraction(self):
        gen = AnswerGenerator(seed=1, meter=CostMeter())
        out = gen.generate(
            "How much did Alpha Widget sales increase in Q2?",
            CONTEXTS, temperature=0.1,
        )
        assert out.grounded
        assert "20%" in out.text
        assert out.support == (0,)

    def test_low_temperature_deterministic_core(self):
        gen = AnswerGenerator(seed=3, meter=CostMeter())
        answers = {
            gen.generate(
                "How much did Alpha Widget sales increase in Q2?",
                CONTEXTS, temperature=0.1,
            ).text
            for _ in range(5)
        }
        assert all("20%" in a for a in answers)

    def test_no_context_fabricates(self):
        gen = AnswerGenerator(seed=2, meter=CostMeter())
        out = gen.generate("How much did sales grow?", [], temperature=0.5)
        assert not out.grounded and out.support == ()

    def test_hallucination_bias_increases_fabrication(self):
        q = "How much did Alpha Widget sales increase in Q2?"
        n = 60

        def fabricated_count(bias):
            gen = AnswerGenerator(seed=5, hallucination_bias=bias,
                                  meter=CostMeter())
            outs = gen.sample_many(q, CONTEXTS, n, temperature=0.9, seed=11)
            return sum(1 for o in outs if not o.grounded)

        assert fabricated_count(0.8) > fabricated_count(0.0)

    def test_token_logprobs_negative(self):
        gen = AnswerGenerator(seed=1, meter=CostMeter())
        out = gen.generate("How much did sales grow?", CONTEXTS)
        assert all(lp < 0 for lp in out.token_logprobs)
        assert out.logprob < 0 and out.mean_logprob < 0

    def test_confidence_higher_with_clear_support(self):
        gen = AnswerGenerator(seed=1, meter=CostMeter())
        strong = gen.generate(
            "How much did Alpha Widget sales increase in Q2?",
            CONTEXTS, temperature=0.1,
        )
        weak = gen.generate(
            "How much did unrelated inventory shrink?",
            CONTEXTS, temperature=0.1,
        )
        assert strong.confidence > weak.confidence

    def test_date_question_extracts_date(self):
        gen = AnswerGenerator(seed=1, meter=CostMeter())
        out = gen.generate(
            "When did the clinical trial begin?",
            ["The clinical trial began on 2024-03-15 at the main site."],
            temperature=0.1,
        )
        assert "2024-03-15" in out.text

    def test_sample_many_count_and_meter(self):
        meter = CostMeter()
        gen = AnswerGenerator(seed=1, meter=meter)
        outs = gen.sample_many("How much did sales grow?", CONTEXTS, 7)
        assert len(outs) == 7
        assert meter.get(GENERATION_CALLS) == 7

    def test_sample_many_seeded_reproducible(self):
        gen1 = AnswerGenerator(seed=1, meter=CostMeter())
        gen2 = AnswerGenerator(seed=1, meter=CostMeter())
        o1 = [g.text for g in gen1.sample_many("How much did sales grow?",
                                               CONTEXTS, 5, seed=42)]
        o2 = [g.text for g in gen2.sample_many("How much did sales grow?",
                                               CONTEXTS, 5, seed=42)]
        assert o1 == o2

    def test_invalid_params(self):
        gen = AnswerGenerator(meter=CostMeter())
        with pytest.raises(ValueError):
            gen.generate("q", [], temperature=0)
        with pytest.raises(ValueError):
            gen.sample_many("q", [], 0)
        with pytest.raises(ValueError):
            AnswerGenerator(hallucination_bias=2.0)


def _candidates_reference(question, contexts, kind):
    """``_candidates`` as it was before the context memo: every
    sentence of every context split, stemmed and pattern-matched per
    call."""
    focus = set(_focus_stems(question))
    cands = []
    for idx, context in enumerate(contexts):
        for sentence in split_sentences(context):
            sent_stems = set(content_stems(sentence))
            overlap = len(focus & sent_stems) / len(focus) if focus else 0.0
            matches = find_patterns(sentence)
            if kind == ANSWER_NUMERIC:
                core = next((m.text
                             for want in (KIND_PERCENT, KIND_MONEY,
                                          KIND_NUMBER)
                             for m in matches if m.kind == want), None)
            elif kind == ANSWER_DATE:
                core = next((m.text for m in matches
                             if m.kind in (KIND_DATE, KIND_QUARTER)), None)
            else:
                core = sentence.strip().rstrip(".")
            if core is None or overlap <= 0.0:
                continue
            cands.append(_Candidate(sentence, idx, overlap, core))
    cands.sort(key=lambda c: (-c.score, c.context_index))
    return cands


_ANSWER_KINDS = (ANSWER_NUMERIC, ANSWER_DATE, ANSWER_ENTITY, ANSWER_FREEFORM)
_CONTEXT_TEXT = st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from([
        "Alpha Widget sales rose 20% in Q2 2024.", "Returns cost $1,200.",
        "The trial began on 2024-03-05.", "Dr. Lee enrolled 48 patients",
        "Customers liked the Alpha Widget!", "It sold 17 units?",
    ]), max_size=4).map(" ".join),
)


class TestContextMemo:
    @pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
    def test_candidates_match_reference_over_retrieved_contexts(
            self, domain, monkeypatch):
        lake = generate_lake(domain, 7)
        system, _ = build_hybrid_system(lake, seed=7)
        memoised = AnswerGenerator._candidates
        seen = []

        def checked(self, question, contexts, kind):
            got = memoised(self, question, contexts, kind)
            assert got == _candidates_reference(question, contexts, kind)
            seen.append(len(got))
            return got

        monkeypatch.setattr(AnswerGenerator, "_candidates", checked)
        for pair in lake.qa_pairs():
            system.answer(pair.question)
        assert len(seen) > 10 and any(seen)

    @settings(max_examples=150, deadline=None)
    @given(
        question=st.one_of(st.text(max_size=40), st.sampled_from([
            "How much did Alpha Widget sales rise?",
            "When did the trial begin?", "Who liked the widget?",
        ])),
        contexts=st.lists(_CONTEXT_TEXT, max_size=4),
        kind=st.sampled_from(_ANSWER_KINDS),
    )
    def test_candidates_match_reference_on_arbitrary_text(
            self, question, contexts, kind):
        gen = AnswerGenerator(meter=CostMeter())
        assert gen._candidates(question, contexts, kind) == \
            _candidates_reference(question, contexts, kind)

    def test_second_generate_analyses_the_question_only(self, monkeypatch):
        analysed = []

        def recorder(name):
            original = getattr(generator_module, name)

            def record(text):
                analysed.append((name, text))
                return original(text)
            return record

        for name in ("content_stems", "find_patterns", "split_sentences"):
            monkeypatch.setattr(generator_module, name, recorder(name))
        _context_sentences.cache_clear()
        contexts = ["Alpha Widget sales rose 20% in Q2. Returns fell 3%.",
                    "Beta Gadget sales fell 5% in Q2."]
        gen = AnswerGenerator(seed=1, meter=CostMeter())
        first = gen.generate("How much did Alpha Widget sales rise?",
                             contexts, temperature=0.1)
        assert first.grounded and "20%" in first.text
        assert {text for name, text in analysed
                if name == "split_sentences"} == set(contexts)
        assert len(analysed) == 2 + 2 * 3
        del analysed[:]
        second = gen.generate("How much did Beta Gadget sales fall?",
                              list(contexts), temperature=0.1)
        assert second.grounded and "5%" in second.text
        assert analysed == []

    def test_memo_is_bounded_and_hands_out_immutable_values(self):
        info = _context_sentences.cache_info()
        assert info.maxsize == CONTEXT_MEMO_SIZE and info.maxsize is not None
        (sentence, stems, matches), = _context_sentences("Sales rose 20%.")
        assert sentence == "Sales rose 20%."
        assert isinstance(stems, frozenset) and isinstance(matches, tuple)
        assert [m.text for m in matches] == ["20%"]


class TestSLMFacade:
    def make_model(self, **kwargs):
        gaz = Gazetteer()
        gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Beta Gadget"])
        return SmallLanguageModel(
            SLMConfig(**kwargs), gazetteer=gaz, meter=CostMeter()
        )

    def test_embed_and_similarity(self):
        slm = self.make_model()
        assert slm.similarity("sales rose", "sales increased") > \
               slm.similarity("sales rose", "patient discharged")

    def test_tag_entities_with_gazetteer(self):
        slm = self.make_model()
        ents = slm.tag_entities("The Alpha Widget sold well in Q2")
        norms = {e.norm for e in ents}
        assert "alpha widget" in norms

    def test_entity_dropout_reduces_recall(self):
        full = self.make_model(entity_dropout=0.0)
        lossy = self.make_model(entity_dropout=0.6, seed=9)
        text = ("The Alpha Widget and Beta Gadget sold in Q1 Q2 Q3 "
                "with sales up 10% and revenue up 20%.")
        n_full = len(full.tag_entities(text))
        n_lossy = sum(len(lossy.tag_entities(text)) for _ in range(10)) / 10
        assert n_lossy < n_full

    def test_generate_via_facade(self):
        slm = self.make_model()
        out = slm.generate(
            "How much did Alpha Widget sales increase?",
            ["Alpha Widget sales increased 20% in Q2."],
            temperature=0.1,
        )
        assert "20%" in out.text

    def test_sample_answers(self):
        slm = self.make_model()
        outs = slm.sample_answers("How much did sales grow?", CONTEXTS,
                                  n_samples=4, seed=3)
        assert len(outs) == 4

    def test_equivalent_via_facade(self):
        slm = self.make_model()
        assert slm.equivalent("sales rose 20%", "the sales rose 20%")

    def test_invalid_dropout(self):
        with pytest.raises(ValueError):
            SLMConfig(entity_dropout=1.0)
