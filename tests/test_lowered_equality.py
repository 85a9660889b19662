"""The fused ``LOWER(col) = 'lit'`` predicate and the one-loop scan.

``BinaryOp.bind`` binds ``LOWER(<column>) = '<text>'`` — the entity
match every structured ask filters with — into one closure. Its oracle
is the generic path the same comparison takes written the other way
round: ``'text' = LOWER(col)`` goes through :class:`Lower` and the
generic comparison, with the same value on every cell type, including NULL, and the same error text for an
unknown or ambiguous column. ``Table.scan_matching`` is one loop over
the heap; it charges the rows it examined like a filter over ``scan()``
does, whether it is exhausted or abandoned after its first match.
"""

import datetime as dt

import pytest

from repro.errors import ExecutionError
from repro.metering import ROWS_SCANNED, CostMeter
from repro.storage.relational import (
    BinaryOp, Column, ColumnRef, Database, Literal, Lower, Table,
    TableSchema,
)
from repro.storage.types import DataType

CELLS = ["Alpha Widget", "alpha widget", "İSTANBUL", "ſtar", "STRASSE",
         "", 12, -3, 0, 1.5, 2.0, True, False, dt.date(2024, 1, 2), None]
TEXTS = ["alpha widget", "Alpha Widget", "i̇stanbul", "ſtar", "strasse",
         "", "12", "-3", "0", "1.5", "2.0", "true", "false", "2024-01-02",
         "none", "null"]


def _fused(column, text):
    return BinaryOp("=", Lower(column), Literal(text))


def _generic(column, text):
    return BinaryOp("=", Literal(text), Lower(column))


@pytest.mark.parametrize("text", TEXTS)
def test_fused_equals_generic_on_every_cell_type(text):
    layout = ("t.id", "t.cell")
    fused = _fused(ColumnRef("cell"), text).bind(layout)
    generic = _generic(ColumnRef("cell"), text).bind(layout)
    assert fused.__name__ == "equals_lowered"  # the fused closure
    for cell in CELLS:
        row = (1, cell)
        got, want = fused(row), generic(row)
        assert got == want and type(got) is type(want), (cell, text)


def test_fused_reads_a_qualified_column_and_the_lowercase_name():
    layout = ("a.name", "b.name")
    for expr in (_fused(ColumnRef("name", "b"), "x"),
                 _generic(ColumnRef("name", "b"), "x")):
        bound = expr.bind(layout)
        assert bound(("y", "X")) is True
        assert bound(("X", "y")) is False


@pytest.mark.parametrize("layout,column", [
    (("t.id", "t.cell"), ColumnRef("nope")),
    (("t.id", "t.cell"), ColumnRef("nope", "t")),
    (("a.name", "b.name"), ColumnRef("name")),
])
def test_unknown_and_ambiguous_columns_raise_the_same_error(layout, column):
    messages = []
    for expr in (_fused(column, "x"), _generic(column, "x")):
        bound = expr.bind(layout)  # binding never raises
        with pytest.raises(ExecutionError) as info:
            bound((1, "x"))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_sql_lower_filter_selects_the_matching_rows():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, n INT)")
    db.execute("INSERT INTO t VALUES (1, 'Alpha', 7), (2, 'ALPHA', 8), "
               "(3, 'beta', 7), (4, NULL, 9)")
    got = db.execute("SELECT id FROM t WHERE LOWER(name) = 'alpha' "
                     "ORDER BY id").rows
    assert got == [(1,), (2,)]
    got = db.execute("SELECT id FROM t WHERE LOWER(n) = '7' ORDER BY id").rows
    assert got == [(1,), (3,)]


# ----------------------------------------------------------------------
# scan_matching charges what a filter over scan() charges
# ----------------------------------------------------------------------

def _table(n_rows):
    meter = CostMeter()
    table = Table(TableSchema("t", [Column("id", DataType.INT),
                                    Column("k", DataType.INT)],
                              primary_key="id"), meter=meter)
    for i in range(n_rows):
        table.insert((i, i % 3))
    table.delete(1)  # a hole in the ids
    return table, meter


def _filtered_scan(table, test):
    """The reference: scan-then-filter."""
    for row_id, row in table.scan():
        if test(row):
            yield row_id, row


def _charged(make_scan, abandon):
    table, meter = _table(12)
    before = meter.get(ROWS_SCANNED)
    scan = make_scan(table, lambda row: row[1] == 2)
    if abandon:
        first = [next(scan)]
        scan.close()
    else:
        first = list(scan)
    return first, meter.get(ROWS_SCANNED) - before


@pytest.mark.parametrize("abandon", [False, True])
def test_scan_matching_charges_like_a_filtered_scan(abandon):
    got = _charged(lambda t, f: t.scan_matching(f), abandon)
    want = _charged(_filtered_scan, abandon)
    assert got == want
    assert got[1] == (11 if not abandon else 2)


def test_scan_matching_charges_an_abandoned_generator_when_dropped():
    table, meter = _table(12)
    scan = table.scan_matching(lambda row: row[1] == 0)
    assert next(scan) == (0, (0, 0))
    del scan
    assert meter.get(ROWS_SCANNED) == 1


def test_scan_matching_charges_when_the_test_raises():
    table, meter = _table(12)

    def boom(row):
        if row[0] == 4:
            raise ValueError("bad row")
        return False

    with pytest.raises(ValueError):
        list(table.scan_matching(boom))
    # Rows 0, 2, 3 and 4 (row 1 is deleted) were examined.
    assert meter.get(ROWS_SCANNED) == 4
