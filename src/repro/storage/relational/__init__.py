"""A small in-memory relational engine with a SQL subset.

Substrate for the paper's TableQA pipeline: generated tables are loaded
here and the synthesized semantic operators compile to this engine's
SQL dialect (SELECT with joins, grouping, aggregates, ordering).
"""

from .database import Database
from .executor import Executor, ResultSet
from .expressions import (
    Between, BinaryOp, ColumnRef, Expression, FunctionCall, InList, IsNull,
    Like, Literal, UnaryOp,
)
from .index import HashIndex, SortedIndex
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
    "Between", "BinaryOp", "ColumnRef", "Expression", "FunctionCall",
    "InList", "IsNull", "Like", "Literal", "UnaryOp",
    "HashIndex", "SortedIndex",
    "database_from_json", "database_to_json", "table_from_dict",
    "table_to_dict",
    "Planner", "PlanNode",
    "Column", "TableSchema", "validate_identifier",
    "AggregateCall", "CreateTableStatement", "InsertStatement",
    "JoinClause", "OrderItem", "SelectItem", "SelectStatement", "TableRef",
    "parse", "render_statement",
    "Table",
]
