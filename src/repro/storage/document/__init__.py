"""Semi-structured document storage (JSON-like) with path queries."""

from .jsonpath import parse_path, select, select_one
from .store import DocumentStore

__all__ = ["DocumentStore", "parse_path", "select", "select_one"]
