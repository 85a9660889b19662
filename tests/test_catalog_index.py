"""The catalog's two per-ask structures hold what a full walk finds.

* ``find_values`` tries only the values whose leading alphanumeric run
  is one of the question's runs. The oracle kept here is the linear
  walk over the whole value index it replaced; the indexed walk must
  return ``==`` hits on drawn value sets and questions — punctuation-
  and ``_``-led values, digits, repeated words, one value in two
  columns, nested and overlapping values, case-folding characters, and
  questions with no exact hit (the fuzzy fallback).
* ``resolve_column`` reads a per-catalog column table rebuilt when the
  database's tables change: after every ``CREATE TABLE`` / ``DROP
  TABLE`` (SQL or ``Database`` call) it equals a fresh catalog's answer.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semql import SchemaCatalog
from repro.semql.catalog import _RUN, ValueHit
from repro.storage.relational import Column, Database, TableSchema
from repro.storage.types import DataType


def _linear_find_values(catalog, question):
    """The walk over every indexed value, as find_values was written
    before it was indexed."""
    low = question.lower()
    taken = [False] * len(low)
    claimed = []
    hits = []
    for value, table, column in catalog._value_index:  # noqa: SLF001
        if value in claimed:
            hits.append(ValueHit(table, column, value, value))
            continue
        start = low.find(value)
        while start != -1:
            end = start + len(value)
            boundary_ok = (
                (start == 0 or not low[start - 1].isalnum())
                and (end == len(low) or not low[end].isalnum())
            )
            if boundary_ok and not any(taken[start:end]):
                for i in range(start, end):
                    taken[i] = True
                claimed.append(value)
                hits.append(ValueHit(table, column, value, low[start:end]))
                break
            start = low.find(value, start + 1)
    hits.sort(key=lambda h: (h.value, h.table, h.column))
    if hits:
        return hits
    return catalog._find_values_fuzzy(low)  # noqa: SLF001


def _catalog(columns):
    """A catalog over one TEXT column per entry of *columns*, spread
    over two tables, with its value index built."""
    db = Database()
    for table in ("t1", "t2"):
        db.create_table(TableSchema(table, [
            Column("id", DataType.INT),
            Column("a", DataType.TEXT),
            Column("b_name", DataType.TEXT),
        ]))
    slots = [("t1", "a"), ("t1", "b_name"), ("t2", "a"), ("t2", "b_name")]
    rows = {"t1": [], "t2": []}
    for (table, column), values in zip(slots, columns):
        for value in values:
            row = [len(rows[table]), None, None]
            row[1 if column == "a" else 2] = value
            rows[table].append(tuple(row))
    for table, table_rows in rows.items():
        db.load_rows(table, table_rows)
    catalog = SchemaCatalog(db)
    catalog.build_value_index()
    return catalog


#: Words that overlap, nest, repeat, lead with punctuation or ``_``,
#: carry digits, or change under case folding.
WORDS = ["alpha", "widget", "alpha widget", "widget alpha", "a1", "x_y",
         "_x", "-beta", "beta", "99", "9", "İstanbul", "i̇stanbul", "ſtar",
         "star", "straße", "STRASSE", "ß", "co.", "#1", "é", "é",
         "al", "pha"]
SEPARATORS = [" ", "", "-", "_", ", ", ".", "'s ", "́"]


@st.composite
def _phrases(draw, max_words):
    words = draw(st.lists(st.sampled_from(WORDS), min_size=1,
                          max_size=max_words))
    out = words[0]
    for word in words[1:]:
        out += draw(st.sampled_from(SEPARATORS)) + word
    return out


VALUES = st.one_of(_phrases(3), st.text(max_size=8))
QUESTIONS = st.one_of(
    _phrases(6), st.text(max_size=30),
    _phrases(2).map(lambda phrase: "tell me about %s?" % phrase),
)


@settings(max_examples=300, deadline=None)
@given(columns=st.lists(st.lists(VALUES, max_size=6), min_size=4,
                       max_size=4),
       questions=st.lists(QUESTIONS, min_size=1, max_size=5))
def test_indexed_find_values_equals_the_linear_walk(columns, questions):
    catalog = _catalog(columns)
    for question in questions:
        assert catalog.find_values(question) == \
            _linear_find_values(catalog, question)


@pytest.mark.parametrize("columns,question", [
    # One value in two columns, a nested and an overlapping value.
    ([["alpha widget", "widget"], ["alpha widget"], ["widget alpha"],
      ["alpha"]], "the alpha widget alpha report"),
    # Punctuation- and underscore-led values, a value holding "_".
    ([["-beta", "_x"], ["x_y"], ["#1"], ["co."]],
     "is -beta or _x or x_y the #1 co.?"),
    # Case folding that changes lengths and letters.
    ([["İstanbul"], ["ſtar"], ["straße"], ["STRASSE"]],
     "İSTANBUL ſtar STRASSE straße"),
    # No exact hit: the fuzzy fallback answers.
    ([["alpha widget"], ["gamma gizmo"], [], []],
     "tell me about the alpa widget"),
    # Repeated words and digits.
    ([["99 red 99"], ["99"], ["a1"], ["red"]], "99 red 99 a1 99"),
])
def test_named_cases_equal_the_linear_walk(columns, question):
    catalog = _catalog(columns)
    assert catalog.find_values(question) == \
        _linear_find_values(catalog, question)


def test_a_run_is_exactly_an_isalnum_stretch():
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        assert bool(_RUN.fullmatch(char)) == char.isalnum(), hex(code)


# ----------------------------------------------------------------------
# The column table follows table DDL
# ----------------------------------------------------------------------

TERMS = ["price", "prices", "name", "sales", "sale", "amount", "order",
         "orders", "order_total", "total", "id", "region", "label"]


def _assert_fresh(catalog, db):
    fresh = SchemaCatalog(db)
    for term in TERMS:
        assert catalog.resolve_column(term) == fresh.resolve_column(term), \
            term


def test_resolve_column_sees_every_create_and_drop():
    db = Database()
    db.execute("CREATE TABLE products (pid INT PRIMARY KEY, name TEXT, "
               "price FLOAT)")
    catalog = SchemaCatalog(db)
    _assert_fresh(catalog, db)
    db.execute("CREATE TABLE sales (sid INT PRIMARY KEY, pid INT, "
               "amount FLOAT)")
    _assert_fresh(catalog, db)
    db.create_table(TableSchema("orders", [
        Column("oid", DataType.INT), Column("order_total", DataType.FLOAT),
        Column("region", DataType.TEXT),
    ]))
    _assert_fresh(catalog, db)
    db.execute("DROP TABLE sales")
    _assert_fresh(catalog, db)
    db.drop_table("products")
    _assert_fresh(catalog, db)
    # The same name again with other columns: a new schema object.
    db.execute("CREATE TABLE sales (sid INT PRIMARY KEY, label TEXT, "
               "total FLOAT)")
    _assert_fresh(catalog, db)
    db.drop_table("sales")
    db.create_table(TableSchema("sales", [
        Column("sid", DataType.INT), Column("amount", DataType.FLOAT),
    ]))
    _assert_fresh(catalog, db)
