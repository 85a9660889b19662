"""Whole-pipeline persistence: build once, deploy many.

Serializes everything a built :class:`HybridQAPipeline` needs —
database (curated + generated tables), graph index, raw texts, JSON
documents, SLM configuration + gazetteer, and the catalog
registrations — into one directory. ``load_pipeline`` reconstructs a
ready-to-answer pipeline *without re-running tagging or extraction*:
the expensive artifacts (graph, generated tables) are loaded, only the
cheap parts (chunking, PageRank, value index) are recomputed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Optional

from ..errors import ReproError
from ..graphindex.builder import GraphIndexBuilder
from ..graphindex.persistence import graph_from_json, graph_to_json
from ..metering import CostMeter, GLOBAL_METER
from ..slm.model import SLMConfig, SmallLanguageModel
from ..storage.document.store import DocumentStore
from ..storage.relational.persistence import (
    database_from_json, database_to_json,
)
from ..storage.textstore import TextStore
from ..text.ner import Gazetteer
from .pipeline import HybridQAPipeline

_MANIFEST = "manifest.json"
_DATABASE = "database.json"
_GRAPH = "graph.json"
_TEXTS = "texts.json"
_DOCUMENTS = "documents.json"

FORMAT_VERSION = 1


def save_pipeline(pipeline: HybridQAPipeline, directory: str) -> None:
    """Persist a *built* pipeline into *directory* (created if needed)."""
    if pipeline._graph is None:  # noqa: SLF001 — persistence is a friend
        raise ReproError("pipeline must be built before saving")
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "version": FORMAT_VERSION,
        "slm_config": asdict(pipeline._slm.config),
        "gazetteer": pipeline._slm.gazetteer_entries(),
        "generated_tables": list(pipeline._generated_tables),
        "entity_columns": dict(pipeline._table_entity_columns),
        "synonyms": list(pipeline._pending_synonyms),
        "joins": list(pipeline._pending_joins),
        "display_columns": list(pipeline._pending_display),
    }
    _write(directory, _MANIFEST, json.dumps(manifest, sort_keys=True))
    _write(directory, _DATABASE, database_to_json(pipeline.db))
    _write(directory, _GRAPH, graph_to_json(pipeline._graph))
    _write(directory, _TEXTS, pipeline.text_store.dump_json())
    _write(directory, _DOCUMENTS, pipeline.doc_store.dump_json())


def load_pipeline(directory: str,
                  meter: Optional[CostMeter] = None) -> HybridQAPipeline:
    """Reconstruct a pipeline saved by :func:`save_pipeline`."""
    meter = meter if meter is not None else GLOBAL_METER
    try:
        manifest = json.loads(_read(directory, _MANIFEST))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError("cannot read pipeline manifest: %s" % exc) from exc
    if manifest.get("version") != FORMAT_VERSION:
        raise ReproError(
            "unsupported pipeline format version %r"
            % manifest.get("version")
        )
    gazetteer = Gazetteer()
    try:
        for etype, names in manifest.get("gazetteer", {}).items():
            gazetteer.add(etype, names)
        slm_config = SLMConfig(**manifest["slm_config"])
        generated_tables = list(manifest["generated_tables"])
        entity_columns = {table: list(cols) for table, cols
                          in manifest["entity_columns"].items()}
        synonyms = manifest["synonyms"]
        joins = manifest["joins"]
        display_columns = manifest["display_columns"]
    except KeyError as exc:
        raise ReproError("pipeline manifest lacks %s" % exc) from exc
    except (AttributeError, TypeError) as exc:
        raise ReproError("malformed pipeline manifest: %s" % exc) from exc
    slm = SmallLanguageModel(slm_config, gazetteer=gazetteer, meter=meter)
    pipeline = HybridQAPipeline(slm, meter=meter)
    pipeline.db = database_from_json(_read(directory, _DATABASE),
                                     meter=meter)
    pipeline.text_store = TextStore.load_json(_read(directory, _TEXTS),
                                              meter=meter)
    pipeline.doc_store = DocumentStore.load_json(
        _read(directory, _DOCUMENTS), meter=meter
    )
    pipeline._generated_tables = generated_tables
    pipeline._table_entity_columns = entity_columns
    for term, table, column in synonyms:
        pipeline.register_synonym(term, table, column)
    for table_a, col_a, table_b, col_b in joins:
        pipeline.register_join(table_a, col_a, table_b, col_b)
    for table, column in display_columns:
        pipeline.register_display_column(table, column)
    # Restore the expensive artifact directly and hand it to a live
    # builder: nothing is re-tagged, now or on the first ingest.
    builder = GraphIndexBuilder(slm, meter=meter)
    builder._graph = graph_from_json(_read(directory, _GRAPH), meter=meter)
    pipeline._builder = builder
    pipeline._install_retriever(pipeline._apply(()))
    pipeline._build_engines()
    return pipeline


def _write(directory: str, name: str, text: str) -> None:
    with open(os.path.join(directory, name), "w",
              encoding="utf-8") as handle:
        handle.write(text)


def _read(directory: str, name: str) -> str:
    with open(os.path.join(directory, name), "r",
              encoding="utf-8") as handle:
        return handle.read()
