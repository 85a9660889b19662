"""The relational database facade.

Ties catalog, parser, planner and executor together:

>>> db = Database()
>>> _ = db.execute("CREATE TABLE t (a INT, b TEXT)")
>>> _ = db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
>>> db.execute("SELECT b FROM t WHERE a = 2").rows
[('y',)]
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Set,
)

from ...errors import ExecutionError, PlanError, SchemaError, StorageError
from ...metering import CostMeter, GLOBAL_METER, ROWS_SCANNED
from ...obs import span
from .executor import Executor, ResultSet
from .plancheck import check_references
from .planner import Planner, PlanNode
from .schema import TableSchema
from .sql_parser import (
    CreateTableStatement, DeleteStatement, DropTableStatement,
    InsertStatement, SelectStatement, UpdateStatement, parse,
)
from .table import Table


class Database:
    """An in-memory multi-table SQL database.

    Every SELECT — executed, planned or explained — goes through one
    preparation step (:meth:`_prepare`): its references are resolved
    against the tables it reads, and an unknown column raises
    :class:`~...errors.PlanError` before planning.

    Every table has a monotone row-write counter (:meth:`row_writes`),
    and a caller may record which tables its SELECTs read
    (:meth:`record_reads`): together they tell a cache which writes can
    change a result computed from those SELECTs. :attr:`version` (any
    change) and :attr:`schema_version` (the catalog) are plain ints a
    reader compares; nothing is called back on a write.
    """

    def __init__(self, meter: Optional[CostMeter] = None):
        self._meter = meter if meter is not None else GLOBAL_METER
        self._tables: Dict[str, Table] = {}
        self._row_writes: Dict[str, int] = {}
        self._reads: Optional[Set[str]] = None
        #: Moves on every CREATE/DROP TABLE and every statement or bulk
        #: load that changes a row; a refused write never moves it.
        self.version = 0
        #: Moves on every CREATE/DROP TABLE.
        self.schema_version = 0

    # ------------------------------------------------------------------
    # Versions
    # ------------------------------------------------------------------
    def row_writes(self, table: str) -> int:
        """How many row-writing statements and bulk loads have changed
        *table* (monotone; a drop never lowers it)."""
        return self._row_writes.get(table, 0)

    def record_reads(self, sink: Optional[Set[str]]) -> None:
        """Add the name of every table each later SELECT reads to
        *sink*, until the next call; ``None`` stops recording."""
        self._reads = sink

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a schema object."""
        if schema.name in self._tables:
            raise StorageError("table %r already exists" % schema.name)
        table = Table(schema, meter=self._meter)
        self._tables[schema.name] = table
        self.schema_version += 1
        self.version += 1
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table and its data."""
        if self._tables.pop(name.lower(), None) is None:
            raise StorageError("no table %r" % name)
        self.schema_version += 1
        self.version += 1

    def table(self, name: str) -> Table:
        """Fetch a table by name."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise StorageError(
                "no table %r (has: %s)"
                % (name, ", ".join(sorted(self._tables)) or "<none>")
            ) from None

    def table_names(self) -> List[str]:
        """Sorted names of all tables."""
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        """True when *name* exists in the catalog."""
        return name.lower() in self._tables

    def create_index(self, table: str, column: str) -> None:
        """Build a secondary hash index on *table.column*."""
        self.table(table).create_index(column)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def execute(self, sql) -> ResultSet:
        """Run one statement: SQL text, or an already built statement
        object (what :func:`~.sql_parser.parse` returns), which skips
        the lexer and parser.

        SELECT returns its rows; the other statements return small
        status results ("ok" / rows inserted, updated or deleted) so
        callers can treat everything uniformly.
        """
        stmt = parse(sql) if isinstance(sql, str) else sql
        with span("sql.execute", kind=type(stmt).__name__) as sp:
            scanned_before = self._meter.get(ROWS_SCANNED)
            result = self._dispatch(stmt)
            scanned = self._meter.get(ROWS_SCANNED) - scanned_before
            sp.set("rows_scanned", scanned)
        return result

    def _dispatch(self, stmt) -> ResultSet:
        if isinstance(stmt, SelectStatement):
            return self._run_select(stmt)
        if isinstance(stmt, CreateTableStatement):
            self.create_table(stmt.schema)
            return ResultSet(["status"], [("ok",)])
        if isinstance(stmt, InsertStatement):
            count = self._run_insert(stmt)
            return ResultSet(["inserted"], [(count,)])
        if isinstance(stmt, UpdateStatement):
            count = self._run_update(stmt)
            return ResultSet(["updated"], [(count,)])
        if isinstance(stmt, DeleteStatement):
            count = self._run_delete(stmt)
            return ResultSet(["deleted"], [(count,)])
        if isinstance(stmt, DropTableStatement):
            self.drop_table(stmt.table)
            return ResultSet(["status"], [("ok",)])
        raise PlanError("unsupported statement type %r" % type(stmt).__name__)

    def plan(self, sql: str) -> PlanNode:
        """The plan :meth:`execute` would run for a SELECT, behind the
        same gate, without running it (for EXPLAIN / tests)."""
        stmt = parse(sql)
        if not isinstance(stmt, SelectStatement):
            raise PlanError("only SELECT statements can be planned")
        return self._prepare(stmt)

    def explain(self, sql: str) -> str:
        """EXPLAIN-style plan rendering."""
        return self.plan(sql).explain()

    def _run_select(self, stmt: SelectStatement) -> ResultSet:
        return Executor(self._tables).execute(self._prepare(stmt))

    def _prepare(self, stmt: SelectStatement) -> PlanNode:
        """Validate the tables, gate, plan: the one preparation
        :meth:`execute`, :meth:`plan` and :meth:`explain` share."""
        self._validate_select(stmt)
        if self._reads is not None:
            self._record_reads(stmt)
        unknown = [
            diag for diag in check_references(stmt, _schemas(self._tables))
            if diag.code == "unknown-column"
        ]
        if unknown:
            raise PlanError("; ".join(d.render() for d in unknown))
        return Planner(self._tables).plan(stmt)

    def _record_reads(self, stmt: SelectStatement) -> None:
        self._reads.update(
            [stmt.table.name] + [j.table.name for j in stmt.joins]
        )

    def _validate_select(self, stmt: SelectStatement) -> None:
        refs = [stmt.table] + [j.table for j in stmt.joins]
        for ref in refs:
            if ref.name not in self._tables:
                raise ExecutionError("unknown table %r" % ref.name)

    def _run_insert(self, stmt: InsertStatement) -> int:
        table = self.table(stmt.table)

        def insert(values: Sequence[Any]) -> None:
            if stmt.columns is None:
                table.insert(values, coerce=True)
                return
            if len(values) != len(stmt.columns):
                raise SchemaError(
                    "INSERT has %d values for %d columns"
                    % (len(values), len(stmt.columns))
                )
            table.insert_dict(dict(zip(stmt.columns, values)), coerce=True)

        return self._write_rows(table, stmt.rows, insert)

    def _run_update(self, stmt: UpdateStatement) -> int:
        table = self.table(stmt.table)
        schema = table.schema
        columns = schema.column_names()
        where = None if stmt.where is None else stmt.where.bind(columns)
        assignments = [
            (schema.index_of(column), value)
            for column, value in stmt.assignments
        ]

        def update(item: Any) -> None:
            row_id, row = item
            new_row = list(row)
            for pos, value in assignments:
                new_row[pos] = value
            table.update(row_id, new_row, coerce=True)

        matching = [(row_id, row) for row_id, row in table.scan()
                    if where is None or where(row)]
        return self._write_rows(table, matching, update)

    def _run_delete(self, stmt: DeleteStatement) -> int:
        table = self.table(stmt.table)
        where = (None if stmt.where is None
                 else stmt.where.bind(table.schema.column_names()))
        doomed = [
            row_id for row_id, row in table.scan()
            if where is None or where(row)
        ]
        return self._write_rows(table, doomed, table.delete)

    def _write_rows(self, table: Table, items: Iterable[Any],
                    write: Callable[[Any], None]) -> int:
        """Apply *write* to each of *items*; returns how many it wrote.

        When any row changed, the table's row-write counter and
        :attr:`version` move once — also when a later item raised, since
        the rows written before it stay (statements are not atomic).
        """
        count = 0
        try:
            for item in items:
                write(item)
                count += 1
        finally:
            if count:
                name = table.schema.name
                self._row_writes[name] = self._row_writes.get(name, 0) + 1
                self.version += 1
        return count

    # ------------------------------------------------------------------
    # Bulk loading helpers
    # ------------------------------------------------------------------
    def load_rows(self, table: str, rows: Iterable[Sequence[Any]],
                  coerce: bool = True) -> int:
        """Bulk-insert raw row tuples; returns count."""
        tbl = self.table(table)
        return self._write_rows(
            tbl, rows, lambda row: tbl.insert(row, coerce=coerce))

    def load_dicts(self, table: str, records: Iterable[Dict[str, Any]],
                   coerce: bool = True) -> int:
        """Bulk-insert column→value mappings; returns count."""
        tbl = self.table(table)
        return self._write_rows(
            tbl, records, lambda record: tbl.insert_dict(record,
                                                         coerce=coerce))


def _schemas(tables: Dict[str, Table]) -> Callable:
    """The ``schema_of`` catalog callback :mod:`.plancheck` reads."""
    def schema_of(name: str) -> Optional[TableSchema]:
        table = tables.get(name)
        return None if table is None else table.schema
    return schema_of
