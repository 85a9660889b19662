"""JSON serialization for databases and tables.

Enables the paper's edge-deployment story: build the lake (and its
generated tables) once on a capable machine, ship the serialized state
to the constrained device, and re-load without re-running extraction.
"""

from __future__ import annotations

import datetime as _dt
import json
from typing import Any, Dict, Optional

from ...errors import StorageError
from ...metering import CostMeter
from ..types import DataType
from .database import Database
from .schema import Column, TableSchema
from .table import Table

FORMAT_VERSION = 1


def _encode_value(value: Any) -> Any:
    if isinstance(value, _dt.date):
        return {"__date__": value.isoformat()}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__date__" in value:
        return _dt.date.fromisoformat(value["__date__"])
    return value


def table_to_dict(table: Table) -> Dict[str, Any]:
    """Serialize one table (schema + rows) to plain JSON-able data."""
    schema = table.schema
    return {
        "name": schema.name,
        "columns": [
            {"name": c.name, "dtype": c.dtype.value,
             "nullable": c.nullable}
            for c in schema.columns
        ],
        "primary_key": schema.primary_key,
        "rows": [
            [_encode_value(v) for v in row] for row in table.rows()
        ],
    }


def table_from_dict(payload: Dict[str, Any],
                    meter: Optional[CostMeter] = None) -> Table:
    """Rebuild a table serialized by :func:`table_to_dict`."""
    try:
        columns = [
            Column(c["name"], DataType(c["dtype"]),
                   nullable=c.get("nullable", True))
            for c in payload["columns"]
        ]
        schema = TableSchema(
            payload["name"], columns,
            primary_key=payload.get("primary_key"),
        )
    except (KeyError, ValueError) as exc:
        raise StorageError("malformed table payload: %s" % exc) from exc
    table = Table(schema, meter=meter)
    for row in payload.get("rows", []):
        table.insert(tuple(_decode_value(v) for v in row))
    return table


def database_to_json(db: Database) -> str:
    """Serialize every table of *db* to one JSON string."""
    payload = {
        "version": FORMAT_VERSION,
        "tables": [
            table_to_dict(db.table(name)) for name in db.table_names()
        ],
    }
    return json.dumps(payload, sort_keys=True)


def database_from_json(text: str,
                       meter: Optional[CostMeter] = None) -> Database:
    """Rebuild a database serialized by :func:`database_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StorageError("invalid database JSON: %s" % exc) from exc
    if payload.get("version") != FORMAT_VERSION:
        raise StorageError(
            "unsupported database format version %r"
            % payload.get("version")
        )
    db = Database(meter=meter)
    for table_payload in payload.get("tables", []):
        table = table_from_dict(table_payload, meter=meter)
        db.create_table(table.schema)
        target = db.table(table.schema.name)
        for row in table.rows():
            target.insert(row)
    return db
