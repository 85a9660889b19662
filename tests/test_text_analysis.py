"""Tests for stemmer, stopwords, patterns, POS and NER."""

import copy
import inspect

import pytest
from hypothesis import given, strategies as st

from repro.bench import (
    HealthSpec, LakeSpec, generate_ecommerce_lake, generate_healthcare_lake,
)
from repro.bench.runner import build_hybrid_system, generate_lake
from repro.graphindex.resolution import _alias_tokens
from repro.slm.entailment import _content_stems
from repro.slm.generator import _focus_stems
from repro.text import patterns as pat
from repro.text.chunker import Chunker
from repro.text.ner import (
    TYPE_METRIC, TYPE_MISC, TYPE_PRODUCT, EntityRecognizer, Gazetteer,
)
from repro.text.pos import NOUN, NUM, PROPN, VERB, tag
from repro.text.stemmer import _porter, stem
from repro.text.stopwords import STOPWORDS, content_stems, content_words
from repro.text.tokenizer import split_sentences, words


def _lake_texts(domain):
    """Every chunk text and question of a default lake at seed 7."""
    lake = generate_lake(domain, 7)
    docs = lake.review_texts if domain == "ecommerce" else lake.note_texts
    texts = [c.text for c in Chunker().chunk_corpus(docs)]
    texts += [pair.question for pair in lake.qa_pairs()]
    assert len(texts) > 50
    return texts


class TestStemmer:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("conflated", "conflat"),
            ("happy", "happi"),
            ("relational", "relat"),
            ("rational", "ration"),
            ("adjustable", "adjust"),
            ("effective", "effect"),
            ("probate", "probat"),
            ("controll", "control"),
        ],
    )
    def test_known_stems(self, word, expected):
        assert stem(word) == expected

    def test_short_words_unchanged(self):
        assert stem("go") == "go"
        assert stem("is") == "is"

    def test_case_insensitive(self):
        assert stem("Running") == stem("running")

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                   min_size=1, max_size=20))
    def test_stem_idempotent_under_repeat_is_stable(self, word):
        once = stem(word)
        assert isinstance(once, str)
        assert len(once) <= len(word) + 1  # at most one char grows ("e" add)

    @given(st.text(max_size=20))
    def test_memo_equals_porter_body(self, word):
        assert stem(word) == _porter.__wrapped__(word)
        assert stem(word) == _porter.__wrapped__(word)  # and on a hit

    @pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
    def test_memo_equals_porter_body_on_default_lake(self, domain):
        for t in _lake_texts(domain):
            for w in words(t):
                assert stem(w) == _porter.__wrapped__(w)

    def test_memo_is_bounded_and_stem_stays_a_function(self):
        # benchmarks/perf/probes.py wraps only inspect.isfunction targets.
        assert inspect.isfunction(stem)
        assert _porter.cache_info().maxsize is not None


class TestStopwords:
    def test_the_is_stopword(self):
        assert content_words("The") == []

    def test_sales_is_not(self):
        assert content_words("sales") == ["sales"]

    def test_content_words_drop_stopwords(self):
        assert content_words("the total sales") == ["total", "sales"]

    def test_content_words_keep_numbers_by_default(self):
        assert "20%" in content_words("20% of sales")

    def test_content_stems_preserve_order(self):
        assert content_stems("sales increased") == ["sale", "increas"]

    @pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
    def test_match_reference_on_default_lake(self, domain):
        for t in _lake_texts(domain):
            kept = [w for w in words(t) if w not in STOPWORDS]
            assert content_words(t) == kept
            assert content_stems(t) == [stem(w) for w in kept]


# (text, _focus_stems, entailment._content_stems sorted, _alias_tokens
# sorted) as they were before being rebuilt on content_words / content_stems.
# Each filters on the *word* ("ies" stays, its stem "i" too; "x", "9" go).
@pytest.mark.parametrize("text, focus, entail, alias", [
    ("", "", "", ""),
    ("a an the of", "", "", ""),
    ("ies is a I x of 7 ties, 20% up", "i ti 20%", "i ti x", ", 20% 7 i ti x"),
    ("not much, no one", "on", "much on", ", much on"),
    ("Q3 2024 revenue", "q3 2024 revenu", "revenu", "q3 revenu"),
    ("How many X2 units?", "x2 unit", "mani unit", "? mani unit x2"),
    ("Which one is best?", "on best", "best on", "? best on"),
    ("data shows sales 2%", "data show sale 2%", "sale", "2% data sale show"),
    ("Pro 2024 Edition", "pro 2024 edit", "edit pro", ""),
    ("new Series 5 model", "new seri model", "model new seri", "5"),
    ("Li's 40mg a day", "li' 40 mg dai", "dai li' mg", "40 dai li' mg"),
    ("Zephyr-9 (was 4.2)!", "zephyr 4.2", "zephyr", "! ( ) - 4.2 9 zephyr"),
])
def test_filtered_variants_pinned(text, focus, entail, alias):
    assert " ".join(_focus_stems(text)) == focus
    assert " ".join(sorted(_content_stems(text))) == entail
    assert " ".join(sorted(_alias_tokens(text))) == alias


class TestPatterns:
    def test_percent(self):
        hits = pat.find_patterns("sales rose 20% in Q2")
        kinds = {m.kind for m in hits}
        assert pat.KIND_PERCENT in kinds and pat.KIND_QUARTER in kinds

    def test_percent_shadows_number(self):
        hits = pat.find_patterns("rose 20%")
        assert [m.kind for m in hits] == [pat.KIND_PERCENT]

    def test_money_with_scale(self):
        hits = pat.find_patterns("revenue of $1.5 million this year")
        assert any(m.kind == pat.KIND_MONEY for m in hits)

    def test_iso_date(self):
        hits = pat.find_patterns("admitted on 2024-03-15")
        assert any(m.kind == pat.KIND_DATE for m in hits)

    def test_text_date(self):
        hits = pat.find_patterns("on March 15, 2024 the trial began")
        assert any(m.kind == pat.KIND_DATE for m in hits)

    def test_structured_id(self):
        hits = pat.find_patterns("patient PAT-0042 received")
        assert any(m.kind == pat.KIND_ID for m in hits)

    def test_word_quarter(self):
        hits = pat.find_patterns("in the second quarter of 2024")
        assert any(m.kind == pat.KIND_QUARTER for m in hits)

    def test_normalize_quarter(self):
        assert pat.normalize_quarter("second quarter of 2024") == "Q2 2024"
        assert pat.normalize_quarter("Q3") == "Q3"

    def test_normalize_percent(self):
        assert pat.normalize_percent("+20%") == 20.0
        assert pat.normalize_percent("-3.5 %") == -3.5

    def test_normalize_money(self):
        assert pat.normalize_money("$1.5 million") == 1.5e6
        assert pat.normalize_money("$1,299.99") == pytest.approx(1299.99)

    def test_matches_sorted_by_position(self):
        hits = pat.find_patterns("Q1 then 20% then $5")
        starts = [m.start for m in hits]
        assert starts == sorted(starts)


class TestPOS:
    def test_basic_tags(self):
        tags = [t.tag for t in tag("Sales increased 20%")]
        assert tags == [NOUN, VERB, NUM]

    def test_proper_noun_mid_sentence(self):
        tagged = tag("the Alpha Widget sells well")
        assert tagged[1].tag == PROPN

    def test_determiner_coerces_verb_to_noun(self):
        tagged = tag("the increased revenue")
        assert tagged[1].tag == NOUN

    def test_punct(self):
        assert tag("end.")[-1].tag == "PUNCT"

    def test_empty(self):
        assert tag("") == []


class TestNER:
    def test_gazetteer_hit(self):
        gaz = Gazetteer()
        gaz.add(TYPE_PRODUCT, ["Alpha Widget"])
        rec = EntityRecognizer(gaz)
        ents = rec.recognize("The Alpha Widget sold well in Q2")
        types = {e.etype for e in ents}
        assert TYPE_PRODUCT in types and pat.KIND_QUARTER in types

    def test_gazetteer_case_insensitive(self):
        rec = EntityRecognizer()
        rec.add_gazetteer(TYPE_PRODUCT, ["alpha widget"])
        ents = rec.recognize("ALPHA WIDGET shipped")
        assert any(e.etype == TYPE_PRODUCT for e in ents)

    def test_norm_is_canonical(self):
        rec = EntityRecognizer()
        rec.add_gazetteer(TYPE_PRODUCT, ["Alpha Widget"])
        ents = rec.recognize("the ALPHA widget again")
        prods = [e for e in ents if e.etype == TYPE_PRODUCT]
        assert prods and prods[0].norm == "alpha widget"

    def test_metric_terms(self):
        ents = EntityRecognizer().recognize("total sales and revenue grew")
        metrics = {e.norm for e in ents if e.etype == TYPE_METRIC}
        assert {"sales", "revenue"} <= metrics

    def test_shape_entity(self):
        ents = EntityRecognizer().recognize("we met Globex Corporation today")
        assert any(e.etype == TYPE_MISC and "globex" in e.norm for e in ents)

    def test_no_overlapping_spans(self):
        gaz = Gazetteer()
        gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Widget"])
        ents = EntityRecognizer(gaz).recognize("Alpha Widget is here")
        spans = sorted(e.span for e in ents)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_offsets_match_source(self):
        text = "PAT-0042 received DrugX on 2024-01-02"
        for ent in EntityRecognizer().recognize(text):
            assert text[ent.start:ent.end] == ent.text


class _FinditerGazetteerStage:
    """The gazetteer stage as it was: one ``finditer`` per entry, in the
    longest-first order of :meth:`Gazetteer.compiled`."""

    def __init__(self, gazetteer):
        self._compiled = gazetteer.compiled()

    def hits(self, text):
        for etype, canonical, regex in self._compiled:
            for m in regex.finditer(text):
                yield etype, canonical, m


def _reference(recognizer, gazetteer=None):
    """*recognizer* with the per-entry ``finditer`` gazetteer stage."""
    ref = copy.copy(recognizer)
    ref._matcher = _FinditerGazetteerStage(gazetteer or recognizer.gazetteer)
    return ref


def _hit_spans(stage, text):
    return [(e, c, m.span()) for e, c, m in stage.hits(text)]


def _assert_matches_reference(gazetteer, texts, before=None):
    """The matcher yields the per-entry loop's hits, and ``recognize``
    the entities the loop gives over *before* (default: *gazetteer*)."""
    rec = EntityRecognizer(gazetteer)
    ref = _reference(rec, before)
    oracle = _FinditerGazetteerStage(gazetteer)
    for text in texts:
        assert _hit_spans(rec._matcher, text) == _hit_spans(oracle, text)
        assert rec.recognize(text) == ref.recognize(text)


def _scaled_lake(domain, seed, scale):
    """(entity names, every chunk, sentence and question) of the
    benchmark-sized lake (24 products / 12 drugs) times *scale*."""
    if domain == "ecommerce":
        lake = generate_ecommerce_lake(
            LakeSpec(n_products=24 * scale, seed=seed))
        names, docs = lake.product_names(), lake.review_texts
    else:
        lake = generate_healthcare_lake(
            HealthSpec(n_drugs=12 * scale, n_patients=48 * scale, seed=seed))
        names, docs = lake.drug_names(), lake.note_texts
    chunks = [c.text for c in Chunker().chunk_corpus(docs)]
    texts = list(chunks)
    for chunk in chunks:
        texts += split_sentences(chunk)
    texts += [pair.question for pair in lake.qa_pairs()]
    return names, texts


_NAME_WORDS = [
    "Alpha", "alpha", "ALPHA", "Widget", "widget", "Pro", "pro", "X2",
    "Bexley", "&", "Stone", "Hartley", "v.", "Dunmore", "(R)", "Labs",
    "Q2", "Max", "Max-9", "co", "'s",
]
_FIXED_NAMES = [
    "Alpha Alpha", "Alpha", "Alpha Widget", "Bexley & Stone",
    "Hartley v. Dunmore", "(R) Labs", "Widget Pro", "Pro Max",
]
_name_st = st.lists(st.sampled_from(_NAME_WORDS), min_size=1,
                    max_size=3).map(" ".join)
_text_st = st.lists(
    st.one_of(st.sampled_from(_NAME_WORDS),
              st.sampled_from([" ", "  ", ", ", ". ", "-", "", "\n"]),
              st.text(max_size=4)),
    max_size=40,
).map("".join)


class TestGazetteerMatcher:
    """The first-word-indexed matcher against the per-entry loop."""

    @pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
    @pytest.mark.parametrize("seed,scale", [(7, 1), (11, 1), (7, 4),
                                            (11, 4)])
    def test_equals_reference_on_lakes(self, domain, seed, scale):
        names, texts = _scaled_lake(domain, seed, scale)
        # Built as build_hybrid_system and declare_entity_columns do;
        # before Gazetteer.add skipped repeats it held every name twice.
        gaz = Gazetteer()
        gaz.add("VALUE", names)
        gaz.add("VALUE", sorted(names))
        twice = Gazetteer({"VALUE": list(names) + sorted(names)})
        _assert_matches_reference(gaz, texts, before=twice)

    @given(st.lists(st.one_of(_name_st, st.sampled_from(_FIXED_NAMES)),
                    max_size=12),
           st.lists(_text_st, min_size=1, max_size=3))
    def test_equals_reference_on_generated_gazetteers(self, names, texts):
        gaz = Gazetteer()
        gaz.add(TYPE_PRODUCT, names[::2])
        gaz.add(TYPE_MISC, names[1::2])
        _assert_matches_reference(gaz, texts)

    @given(st.lists(st.text(alphabet="aksiKſİıé2 .&", min_size=1,
                            max_size=6), max_size=8),
           st.lists(st.text(alphabet="abksiKſİıé29 .&-", max_size=40),
                    min_size=1, max_size=3))
    def test_equals_reference_on_non_ascii_text(self, names, texts):
        # IGNORECASE folds K (Kelvin), ſ, İ and ı onto ASCII letters.
        gaz = Gazetteer()
        gaz.add(TYPE_PRODUCT, names + ["kiss", "Ski", "is", "sk2"])
        _assert_matches_reference(gaz, texts)

    def test_folded_letters_still_match(self):
        # A non-ASCII text word tries every entry; a non-ASCII name
        # ("\u017fki", long s) is scanned, as it matches ASCII "SKI".
        gaz = Gazetteer()
        gaz.add(TYPE_PRODUCT, ["Kiss", "basis", "\u017fki"])
        ents = EntityRecognizer(gaz).recognize(
            "\u212aiss and ba\u017fis SKI")
        assert [e.norm for e in ents] == ["kiss", "basis", "\u017fki"]

    def test_overlapping_self_matches_follow_finditer(self):
        gaz = Gazetteer()
        gaz.add(TYPE_PRODUCT, ["Alpha Alpha"])
        rec = EntityRecognizer(gaz)
        text = "alpha Alpha ALPHA alpha"
        assert [span for _, _, span in _hit_spans(rec._matcher, text)] == [
            (0, 11), (12, 23)]
        # finditer skips "alpha alpha" at 16 because it overlaps the
        # entry's own unclaimed match at 10, so nothing claims it.
        gaz.add(TYPE_PRODUCT, ["Xylophone Alpha"])
        rec = EntityRecognizer(gaz)
        ents = rec.recognize("xylophone alpha alpha alpha")
        assert [e.span for e in ents] == [(0, 15)]


class TestGazetteerAdd:
    def test_add_is_idempotent(self):
        gaz = Gazetteer()
        gaz.add(TYPE_PRODUCT, ["Alpha", " Beta ", "Alpha"])
        gaz.add(TYPE_PRODUCT, ["Beta", "Gamma", ""])
        gaz.add(TYPE_MISC, ["Alpha"])
        assert gaz.entries == {TYPE_PRODUCT: ["Alpha", "Beta", "Gamma"],
                               TYPE_MISC: ["Alpha"]}

    @pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
    def test_built_gazetteer_holds_each_name_once(self, domain):
        _, pipeline = build_hybrid_system(generate_lake(domain, 7), seed=7)
        entries = pipeline._slm.gazetteer_entries()
        assert entries["VALUE"]
        for names in entries.values():
            assert len(names) == len(set(names))
        table = "products" if domain == "ecommerce" else "drugs"
        pipeline.declare_entity_columns(table, ["name"])
        assert pipeline._slm.gazetteer_entries() == entries
