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
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ...errors import ExecutionError, PlanError, SchemaError, StorageError
from ...metering import CostMeter, GLOBAL_METER, ROWS_SCANNED
from ...obs import incr, span
from .executor import Executor, ResultSet
from .plancheck import check_references, check_select
from .planner import Planner, PlanNode
from .schema import TableSchema
from .sql_parser import (
    CreateTableStatement, CreateViewStatement, DeleteStatement,
    DropTableStatement, DropViewStatement, InsertStatement,
    SelectStatement, TransactionStatement, UpdateStatement, parse,
)
from .table import Table


class Database:
    """An in-memory multi-table SQL database.

    Every SELECT — executed, planned or explained — goes through one
    preparation step (:meth:`_prepare`): its references are resolved
    against the tables and views it reads, and an unknown column raises
    :class:`~...errors.PlanError` before planning, the one static
    finding that is always a bug rather than a possibly-intentional
    empty result. The advisory findings of :mod:`.plancheck` are
    :meth:`analyze`'s alone.
    """

    def __init__(self, meter: Optional[CostMeter] = None,
                 table_factory: Optional[Callable[[TableSchema], Table]] = None):
        self._meter = meter if meter is not None else GLOBAL_METER
        # Pluggable table construction: partitioned deployments inject a
        # factory returning sharded facades; the facade must be a Table
        # subclass sharing this database's meter.
        self._table_factory = table_factory
        self._tables: Dict[str, Table] = {}
        self._views: Dict[str, SelectStatement] = {}
        self._snapshot: Optional[tuple] = None  # open transaction
        self._mutation_listeners: List[Any] = []

    # ------------------------------------------------------------------
    # Write-through mutation notification
    # ------------------------------------------------------------------
    def add_mutation_listener(self, listener) -> None:
        """Subscribe ``listener(op)`` to every write on this database.

        Listeners fire after DDL/DML statements and bulk loads commit
        to the in-memory heap — the hook the serving layer's caches
        use for write-through invalidation. Listeners must not write
        back into the database.
        """
        self._mutation_listeners.append(listener)

    def _notify_mutation(self, op: str) -> None:
        for listener in self._mutation_listeners:
            listener(op)

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a schema object."""
        if schema.name in self._tables or schema.name in self._views:
            raise StorageError("table %r already exists" % schema.name)
        if self._table_factory is not None:
            table = self._table_factory(schema)
        else:
            table = Table(schema, meter=self._meter)
        self._tables[schema.name] = table
        self._notify_mutation("create_table")
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table and its data."""
        if self._tables.pop(name.lower(), None) is None:
            raise StorageError("no table %r" % name)
        self._notify_mutation("drop_table")

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

    def create_index(self, table: str, column: str,
                     kind: str = "hash") -> None:
        """Build a secondary index on *table.column*."""
        self.table(table).create_index(column, kind=kind)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def execute(self, sql) -> ResultSet:
        """Run one statement: SQL text, or an already built statement
        object (what :func:`~.sql_parser.parse` returns), which skips
        the lexer and parser.

        SELECT returns its rows; CREATE/INSERT return small status
        results ("ok" / rows inserted) so callers can treat everything
        uniformly.
        """
        stmt = parse(sql) if isinstance(sql, str) else sql
        with span("sql.execute", kind=type(stmt).__name__) as sp:
            scanned_before = self._meter.get(ROWS_SCANNED)
            result = self._dispatch(stmt)
            scanned = self._meter.get(ROWS_SCANNED) - scanned_before
            sp.set("rows_scanned", scanned)
            incr("sql.statements")
            incr("sql.rows_scanned", scanned)
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
        if isinstance(stmt, CreateViewStatement):
            self.create_view(stmt.name, stmt.select)
            return ResultSet(["status"], [("ok",)])
        if isinstance(stmt, DropViewStatement):
            self.drop_view(stmt.name)
            return ResultSet(["status"], [("ok",)])
        if isinstance(stmt, TransactionStatement):
            getattr(self, stmt.action)()
            return ResultSet(["status"], [(stmt.action,)])
        raise PlanError("unsupported statement type %r" % type(stmt).__name__)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def create_view(self, name: str, select: SelectStatement) -> None:
        """Register *name* as a view over a stored SELECT."""
        name = name.lower()
        if name in self._tables or name in self._views:
            raise StorageError("name %r already exists" % name)
        # Validate eagerly: the SELECT must run against current state.
        self._run_select(select)
        self._views[name] = select

    def drop_view(self, name: str) -> None:
        """Remove a view definition."""
        if self._views.pop(name.lower(), None) is None:
            raise StorageError("no view %r" % name)

    def _materialize_view(self, name: str) -> Table:
        from ..types import infer_value_type, unify_types
        from .schema import Column

        result = self._run_select(self._views[name])
        columns = []
        for i, raw_name in enumerate(result.columns):
            col_name = "".join(
                ch if ch.isalnum() or ch == "_" else "_"
                for ch in raw_name.lower()
            ) or "c_%d" % i
            if col_name[0].isdigit():
                col_name = "c_" + col_name
            values = [row[i] for row in result.rows if row[i] is not None]
            dtype = unify_types(infer_value_type(v) for v in values)
            columns.append(Column(col_name, dtype))
        table = Table(TableSchema(name, columns), meter=self._meter)
        for row in result.rows:
            table.insert(row)
        return table

    # ------------------------------------------------------------------
    # Transactions (snapshot-based, single level)
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Open a transaction (snapshot of all tables and views)."""
        if self._snapshot is not None:
            raise StorageError("a transaction is already open")
        self._snapshot = (
            {name: table.clone() for name, table in self._tables.items()},
            dict(self._views),
        )

    def commit(self) -> None:
        """Make the open transaction's changes permanent."""
        if self._snapshot is None:
            raise StorageError("no open transaction to commit")
        self._snapshot = None

    def rollback(self) -> None:
        """Discard all changes since :meth:`begin`."""
        if self._snapshot is None:
            raise StorageError("no open transaction to roll back")
        self._tables, self._views = self._snapshot
        self._snapshot = None
        self._notify_mutation("rollback")

    def plan(self, sql: str) -> PlanNode:
        """The plan :meth:`execute` would run for a SELECT, behind the
        same gate, without running it (for EXPLAIN / tests)."""
        stmt = parse(sql)
        if not isinstance(stmt, SelectStatement):
            raise PlanError("only SELECT statements can be planned")
        return self._prepare(stmt)[0]

    def explain(self, sql: str) -> str:
        """EXPLAIN-style plan rendering."""
        return self.plan(sql).explain()

    def analyze(self, sql: str) -> list:
        """Statically lint a SELECT without executing it.

        Returns the plan-checker's
        :class:`~.plancheck.PlanDiagnostic` list (empty when clean);
        never raises for semantic problems — that is the caller's
        policy decision.
        """
        stmt = parse(sql)
        if not isinstance(stmt, SelectStatement):
            raise PlanError("only SELECT statements can be analyzed")
        return check_select(stmt, _schemas(self._resolve_tables(stmt)))

    def _run_select(self, stmt: SelectStatement) -> ResultSet:
        plan, tables = self._prepare(stmt)
        return Executor(tables).execute(plan)

    def _prepare(
        self, stmt: SelectStatement,
    ) -> Tuple[PlanNode, Dict[str, Table]]:
        """Validate the tables, resolve views, gate, plan: the one
        preparation :meth:`execute`, :meth:`plan` and :meth:`explain`
        share. Returns the plan and the tables it runs over."""
        self._validate_select(stmt)
        tables = self._resolve_tables(stmt)
        unknown = [
            diag for diag in check_references(stmt, _schemas(tables))
            if diag.code == "unknown-column"
        ]
        if unknown:
            raise PlanError("; ".join(d.render() for d in unknown))
        return Planner(tables).plan(stmt), tables

    def _resolve_tables(self, stmt: SelectStatement) -> Dict[str, Table]:
        """Base tables plus materialized views referenced by *stmt*."""
        mapping = dict(self._tables)
        for ref in [stmt.table] + [j.table for j in stmt.joins]:
            if ref.name not in mapping and ref.name in self._views:
                mapping[ref.name] = self._materialize_view(ref.name)
        return mapping

    def _validate_select(self, stmt: SelectStatement) -> None:
        refs = [stmt.table] + [j.table for j in stmt.joins]
        for ref in refs:
            if ref.name not in self._tables and ref.name not in self._views:
                raise ExecutionError("unknown table %r" % ref.name)

    def _run_insert(self, stmt: InsertStatement) -> int:
        table = self.table(stmt.table)
        count = 0
        for values in stmt.rows:
            if stmt.columns is not None:
                if len(values) != len(stmt.columns):
                    raise SchemaError(
                        "INSERT has %d values for %d columns"
                        % (len(values), len(stmt.columns))
                    )
                record = dict(zip(stmt.columns, values))
                table.insert_dict(record, coerce=True)
            else:
                table.insert(values, coerce=True)
            count += 1
        if count:
            self._notify_mutation("insert")
        return count

    def _run_update(self, stmt: UpdateStatement) -> int:
        table = self.table(stmt.table)
        schema = table.schema
        columns = schema.column_names()
        where = None if stmt.where is None else stmt.where.bind(columns)
        assignments = [
            (schema.index_of(column), expr.bind(columns))
            for column, expr in stmt.assignments
        ]
        count = 0
        for row_id, row in list(table.scan()):
            if where is not None and not where(row):
                continue
            new_row = list(row)
            for pos, value in assignments:
                new_row[pos] = value(row)
            table.update(row_id, new_row, coerce=True)
            count += 1
        if count:
            self._notify_mutation("update")
        return count

    def _run_delete(self, stmt: DeleteStatement) -> int:
        table = self.table(stmt.table)
        where = (None if stmt.where is None
                 else stmt.where.bind(table.schema.column_names()))
        doomed = [
            row_id for row_id, row in table.scan()
            if where is None or where(row)
        ]
        for row_id in doomed:
            table.delete(row_id)
        if doomed:
            self._notify_mutation("delete")
        return len(doomed)

    # ------------------------------------------------------------------
    # Bulk loading helpers
    # ------------------------------------------------------------------
    def load_rows(self, table: str, rows: Iterable[Sequence[Any]],
                  coerce: bool = True) -> int:
        """Bulk-insert raw row tuples; returns count."""
        tbl = self.table(table)
        count = 0
        for row in rows:
            tbl.insert(row, coerce=coerce)
            count += 1
        if count:
            self._notify_mutation("load_rows")
        return count

    def load_dicts(self, table: str, records: Iterable[Dict[str, Any]],
                   coerce: bool = True) -> int:
        """Bulk-insert column→value mappings; returns count."""
        tbl = self.table(table)
        count = 0
        for record in records:
            tbl.insert_dict(record, coerce=coerce)
            count += 1
        if count:
            self._notify_mutation("load_dicts")
        return count


def _schemas(tables: Dict[str, Table]) -> Callable:
    """The ``schema_of`` catalog callback :mod:`.plancheck` reads."""
    def schema_of(name: str) -> Optional[TableSchema]:
        table = tables.get(name)
        return None if table is None else table.schema
    return schema_of
