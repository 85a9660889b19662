"""One analysis per question: the router's frame feeds synthesis.

``SchemaCatalog.frame(question)`` analyses a question once (intent,
value hits, and the first bound metric term with its unpreferred
candidates), and the router hands that frame down the plan to
``OperatorSynthesizer.synthesize``. The oracle is the old two-pass path,
kept in this file: the router's classification from its own
``analyze`` / ``find_values`` / ``resolve_column`` calls, and column
scoring with the preference bonus added while scoring. Over every
question of both lakes' full pools at seeds 7 and 11, and over
Hypothesis-drawn text:

* synthesis from a handed-over frame equals synthesis from scratch
  (the same spec, or the same ``SynthesisError`` message);
* routing is unchanged;
* the frame's metric candidates, re-scored, equal ``resolve_column``
  for every preference set the synthesizer passes;
* a single structured or hybrid ask analyses its question once;
* the frame moves no plan signature, digest or rendering.

It also pins a known bug: a SQL write never reaches the catalog's value
index (see ROADMAP).
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import build_hybrid_system, generate_lake
from repro.errors import SynthesisError
from repro.qa import (
    ROUTE_HYBRID, ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED, render_plan,
)
from repro.qa.compare import detect_comparison
from repro.semql import (
    ColumnBinding, OperatorSynthesizer, SchemaCatalog, analyze,
)
from repro.semql import catalog as catalog_module
from repro.text.stemmer import stem
from repro.text.stopwords import content_stems

LAKES = [(domain, seed) for domain in ("ecommerce", "healthcare")
         for seed in (7, 11)]

#: Cue phrases mixed into drawn questions beside a pool question's words.
CUES = ("total", "average", "how many", "count", "which", "what is",
        "highest", "cheapest", "list", "per", "by", "top 3", "in", "Q3",
        "Q2 2024", "more than", "15%", "between 5 and 10", "not from",
        "sales", "price", "change", "increase", "efficacy", "with", "?")


@functools.lru_cache(maxsize=None)
def _built(domain, seed):
    """A built pipeline and its lake's full question pool."""
    lake = generate_lake(domain, seed)
    _system, pipe = build_hybrid_system(lake, seed=seed)
    pool = tuple(dict.fromkeys(
        pair.question for pair in lake.qa_pairs(per_kind=10 ** 6)))
    return pipe, pool


# ----------------------------------------------------------------------
# The oracle: the old path, one function per call it made
# ----------------------------------------------------------------------

def _reference_resolve(catalog, term, prefer=()):
    """Column candidates for *term*, the bonus added while scoring."""
    term_low = term.strip().lower()
    term_stem = stem(term_low)
    term_tokens = set(content_stems(term_low))
    db = catalog._db  # noqa: SLF001
    out = []
    for table_name in db.table_names():
        for column in db.table(table_name).schema.columns:
            name = column.name
            name_tokens = {stem(p) for p in name.split("_") if p}
            score = 0.0
            if name == term_low:
                score = 1.0
            elif stem(name) == term_stem:
                score = 0.8
            elif name_tokens and term_tokens:
                overlap = len(name_tokens & term_tokens) / len(
                    name_tokens | term_tokens)
                if overlap > 0:
                    score = 0.5 * overlap
            if score > 0:
                if table_name in prefer:
                    score += 0.05
                out.append(ColumnBinding(table_name, name, score))
        if table_name == term_low or stem(table_name) == term_stem:
            measure = catalog._single_measure_column(  # noqa: SLF001
                table_name)
            if measure is not None:
                bonus = 0.05 if table_name in prefer else 0.0
                out.append(ColumnBinding(table_name, measure, 0.7 + bonus))
    for table_name, column in catalog._synonyms.get(  # noqa: SLF001
            term_stem, []):
        bonus = 0.05 if table_name in prefer else 0.0
        out.append(ColumnBinding(table_name, column, 0.9 + bonus))
    out.sort(key=lambda c: (-c.score, c.table, c.column))
    return out


def _reference_metric(catalog, intent, prefer):
    """The synthesizer's metric candidates, one resolve per term."""
    for term in intent.metric_terms:
        candidates = _reference_resolve(catalog, term, prefer)
        if candidates:
            return candidates
    return []


def _reference_route(catalog, question):
    """(route, reason, bound tables, confidence) from a second analysis."""
    intent = analyze(question)
    value_hits = catalog.find_values(question)
    bound = tuple(sorted({hit.table for hit in value_hits}))
    metric_bound = any(_reference_resolve(catalog, term)
                       for term in intent.metric_terms)
    if intent.is_aggregate and metric_bound:
        if value_hits or intent.quarter or intent.comparisons:
            return (ROUTE_STRUCTURED,
                    "aggregate over bound metric with bound filters",
                    bound, 0.95)
        return (ROUTE_STRUCTURED, "aggregate over bound metric", bound,
                0.65)
    if metric_bound and (value_hits or intent.comparisons):
        return (ROUTE_HYBRID, "metric binds but question is not aggregate",
                bound, 0.7)
    if value_hits:
        return (ROUTE_HYBRID, "entities bind but no metric column does",
                bound, 0.6)
    return (ROUTE_UNSTRUCTURED, "no schema element binds", (), 0.75)


def _synthesized(synthesizer, question, frame):
    """The spec's repr, or the error message synthesis raised."""
    try:
        return repr(synthesizer.synthesize(question, frame=frame))
    except SynthesisError as exc:
        return "SynthesisError: %s" % exc


def _check_question(pipe, question):
    catalog = pipe.table_qa.catalog
    decision = pipe.route(question)
    assert (decision.route, decision.reason, decision.bound_tables,
            decision.confidence) == _reference_route(catalog, question)
    frame = decision.frame
    assert frame == catalog.frame(question)
    assert frame.question == question

    synthesizer = OperatorSynthesizer(catalog)
    assert _synthesized(synthesizer, question, frame) == \
        _synthesized(synthesizer, question, None)

    # The synthesizer prefers the hit tables for the metric and the
    # base table (any single table) for everything else.
    tables = catalog.tables()
    preferences = [(), [hit.table for hit in frame.value_hits], tables]
    preferences += [[table] for table in tables]
    intent = frame.intent
    for prefer in preferences:
        assert frame.metric_bindings(prefer) == \
            _reference_metric(catalog, intent, prefer)
        for term in intent.metric_terms + intent.content_terms:
            assert catalog.resolve_column(term, prefer) == \
                _reference_resolve(catalog, term, prefer)


# ----------------------------------------------------------------------
# Equivalence over the pools and over drawn text
# ----------------------------------------------------------------------

@pytest.mark.parametrize("domain,seed", LAKES)
def test_every_pool_question_keeps_route_spec_and_bindings(domain, seed):
    pipe, pool = _built(domain, seed)
    routes = set()
    for question in pool:
        _check_question(pipe, question)
        routes.add(pipe.route(question).route)
    assert {ROUTE_STRUCTURED, ROUTE_HYBRID} <= routes


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_drawn_text_keeps_route_spec_and_bindings(data):
    domain = data.draw(st.sampled_from(["ecommerce", "healthcare"]))
    pipe, pool = _built(domain, 7)
    source = data.draw(st.sampled_from(pool)).split()
    piece = st.one_of(st.sampled_from(source + list(CUES)),
                      st.text(max_size=6))
    question = " ".join(data.draw(st.lists(piece, max_size=12)))
    _check_question(pipe, question)


# ----------------------------------------------------------------------
# One analysis per ask
# ----------------------------------------------------------------------

@pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
def test_a_structured_or_hybrid_ask_analyses_its_question_once(
        domain, monkeypatch):
    pipe, pool = _built(domain, 7)
    asks = [q for q in pool
            if pipe.route(q).route in (ROUTE_STRUCTURED, ROUTE_HYBRID)
            and detect_comparison(q, pipe.slm) is None]
    assert asks
    counts = {"analyze": 0, "find_values": 0, "synthesize": 0, "inside": 0}
    real_analyze = catalog_module.analyze
    real_find_values = SchemaCatalog.find_values
    real_synthesize = OperatorSynthesizer.synthesize

    def counted_analyze(question):
        counts["analyze"] += 1
        return real_analyze(question)

    def counted_find_values(self, question):
        counts["find_values"] += 1
        return real_find_values(self, question)

    def watched_synthesize(self, question, frame=None):
        before = counts["analyze"] + counts["find_values"]
        try:
            return real_synthesize(self, question, frame=frame)
        finally:
            counts["synthesize"] += 1
            counts["inside"] += (counts["analyze"] + counts["find_values"]
                                 - before)

    monkeypatch.setattr(catalog_module, "analyze", counted_analyze)
    monkeypatch.setattr(SchemaCatalog, "find_values", counted_find_values)
    monkeypatch.setattr(OperatorSynthesizer, "synthesize",
                        watched_synthesize)
    for question in asks:
        for key in counts:
            counts[key] = 0
        pipe.answer(question)
        assert (counts["analyze"], counts["find_values"]) == (1, 1), question
        assert counts["synthesize"] >= 1, question
        assert counts["inside"] == 0, question


# ----------------------------------------------------------------------
# The frame rides the plan outside its identity
# ----------------------------------------------------------------------

@pytest.mark.parametrize("domain,seed", LAKES)
def test_the_frame_moves_no_plan_identity(domain, seed):
    pipe, pool = _built(domain, seed)
    for question in pool:
        plan = pipe._executor.compile(question)
        assert plan.frame is not None and plan.frame.question == question
        bare = dataclasses.replace(plan, frame=None)
        assert plan == bare and hash(plan) == hash(bare)
        assert plan.signature() == bare.signature()
        assert plan.digest() == bare.digest()
        assert render_plan(plan) == render_plan(bare)


def test_analysis_values_are_frozen():
    pipe, pool = _built("ecommerce", 7)
    decision = pipe.route(pool[0])
    comparison = analyze("sales between 100 and 200").comparisons[0]
    for value, name in ((decision, "route"), (decision.frame, "value_hits"),
                        (decision.frame.intent, "metric_terms"),
                        (comparison, "value")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        hash(value)


# ----------------------------------------------------------------------
# A SQL write never reaches the value index (ROADMAP item 13)
# ----------------------------------------------------------------------

ZEPHYR_QUESTION = "What were the total sales of Zephyr Kettle in Q3?"


def _zephyr_pipeline():
    """Seed-7 e-commerce with one new product and one Q3 sale of it."""
    _system, pipe = build_hybrid_system(generate_lake("ecommerce", 7),
                                        seed=7)
    pipe.add_sql([
        "INSERT INTO products VALUES (990001, 'Zephyr Kettle', "
        "'zephyr kettle', 'Stark Labs', 'outdoor', 10.0)",
        "INSERT INTO sales VALUES (990001, 990001, 'Q3', 2024, 123.0)",
    ])
    return pipe


@pytest.mark.xfail(strict=True, reason=(
    "the value index is rebuilt only by build() and ingest_incremental, "
    "so the new product binds no filter and the ask sums every Q3 sale"))
def test_a_sql_write_reaches_the_value_index():
    assert _zephyr_pipeline().answer(ZEPHYR_QUESTION).value == 123.0


def test_an_ingest_rebuilds_the_value_index():
    pipe = _zephyr_pipeline()
    pipe.ingest_incremental([("zz-unrelated",
                              "Nothing at all was noted here.")])
    assert pipe.answer(ZEPHYR_QUESTION).value == 123.0
