"""A small in-memory relational engine with a SQL dialect.

Substrate for the paper's TableQA pipeline: generated tables are loaded
here and the synthesized semantic operators compile to this engine's
SQL dialect (SELECT with inner joins, grouping, aggregates, ordering;
the grammar is in :mod:`.sql_parser`).
"""

from .database import Database
from .executor import Executor, ResultSet
from .expressions import (
    BinaryOp, ColumnRef, Expression, Like, Literal, Lower, UnaryOp,
)
from .index import HashIndex
from .persistence import (
    database_from_json, database_to_json, table_from_dict, table_to_dict,
)
from .planner import Planner, PlanNode
from .schema import Column, TableSchema, validate_identifier
from .sql_parser import (
    AggregateCall, CreateTableStatement, InsertStatement, JoinClause,
    OrderItem, SelectItem, SelectStatement, TableRef, parse,
    render_statement,
)
from .table import Table

__all__ = [
    "Database", "Executor", "ResultSet",
    "BinaryOp", "ColumnRef", "Expression", "Like", "Literal", "Lower",
    "UnaryOp",
    "HashIndex",
    "database_from_json", "database_to_json", "table_from_dict",
    "table_to_dict",
    "Planner", "PlanNode",
    "Column", "TableSchema", "validate_identifier",
    "AggregateCall", "CreateTableStatement", "InsertStatement",
    "JoinClause", "OrderItem", "SelectItem", "SelectStatement", "TableRef",
    "parse", "render_statement",
    "Table",
]
