"""Relational Table Generation (paper Section III.C, task 1).

The end-to-end transform from unstructured documents to a queryable
relational table: extract facts per sentence, infer a unified schema,
materialize a :class:`~repro.storage.relational.table.Table`, and
optionally register it in a :class:`Database` for the TableQA engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ExtractionError
from ..slm.model import SmallLanguageModel
from ..storage.relational.database import Database
from ..storage.relational.schema import Column, TableSchema
from ..storage.relational.table import Table
from ..storage.types import DataType
from .attributes import AttributeExtractor, ExtractedFact
from .schema_infer import facts_to_rows, infer_fact_schema

PROVENANCE_COLUMN = "source_doc"
SOURCE_TEXT_COLUMN = "source_text"


@dataclass
class GeneratedTable:
    """The output of table generation: the table plus its lineage."""

    table: Table
    facts: List[ExtractedFact]
    doc_ids: List[str]

    @property
    def name(self) -> str:
        """Name of the generated table."""
        return self.table.schema.name


@dataclass
class _Assembly:
    """The last table assembled under one name, and where it went."""

    facts: List[ExtractedFact]
    fact_docs: List[str]
    table: Table
    # The database table ``generate_into`` filled from it, if any.
    installed: Optional[Table] = None


class TableGenerator:
    """Generate relational tables from unstructured documents.

    Reuse contract: per table name the generator keeps the
    ``{doc_id: (text, facts)}`` of its last ``generate`` call, and the
    next call for that name extracts only documents whose id is new or
    whose text changed; the rest contribute the facts they already
    yielded. Rows always follow the caller's document order, and a
    document absent from a call leaves nothing behind. Regenerating a
    table after one new document therefore costs that document's
    tagging, not the corpus's.

    The assembled table is kept too: a generation whose facts (and the
    documents they came from) equal those of the last table assembled
    under that name returns that same :class:`Table`, and
    ``generate_into`` leaves the database table it filled from it
    untouched — no drop, no create, no inserts, no mutation event. A
    fact-less new document therefore touches no table; any change in
    the facts assembles and installs a new one. The returned table is
    shared with the kept state; treat it as read-only.

    Kept facts are only as fresh as the SLM that produced them: call
    :meth:`forget` after changing what the SLM recognises (its
    gazetteer). With ``entity_dropout > 0`` extraction is a random
    draw, so a stored document keeps the facts of its *first*
    extraction instead of being re-rolled on every regeneration.
    Returned :class:`ExtractedFact` objects are shared with the kept
    state; treat them as read-only.
    """

    def __init__(self, slm: SmallLanguageModel,
                 min_column_support: int = 1,
                 include_provenance: bool = True,
                 include_source_text: bool = False):
        self._extractor = AttributeExtractor(slm)
        self._min_support = min_column_support
        self._provenance = include_provenance
        self._source_text = include_source_text
        self._kept: Dict[str, Dict[str, Tuple[str, List[ExtractedFact]]]] = {}
        self._assembled: Dict[str, _Assembly] = {}

    def forget(self) -> None:
        """Drop every kept fact and table; the next generation extracts
        and assembles afresh."""
        self._kept.clear()
        self._assembled.clear()

    def generate(self, name: str,
                 documents: Iterable[Tuple[str, str]]) -> GeneratedTable:
        """Build table *name* from (doc_id, text) pairs.

        Documents unchanged since the last generation of *name* reuse
        their kept facts, and unchanged facts the table assembled from
        them (see the class docstring). Raises
        :class:`ExtractionError` when no document yields a fact.
        """
        previous = self._kept.get(name, {})
        kept: Dict[str, Tuple[str, List[ExtractedFact]]] = {}
        facts: List[ExtractedFact] = []
        fact_docs: List[str] = []
        doc_ids: List[str] = []
        for doc_id, text in documents:
            doc_ids.append(doc_id)
            entry = previous.get(doc_id)
            if entry is None or entry[0] != text:
                entry = (text, self._extractor.extract(text))
            kept[doc_id] = entry
            for fact in entry[1]:
                facts.append(fact)
                fact_docs.append(doc_id)
        self._kept[name] = kept
        if not facts:
            raise ExtractionError(
                "no extractable facts in %d documents" % len(doc_ids)
            )
        last = self._assembled.get(name)
        if (last is not None and last.fact_docs == fact_docs
                and last.facts == facts):
            return GeneratedTable(last.table, facts, doc_ids)
        schema = infer_fact_schema(
            name, facts, min_column_support=self._min_support
        )
        extra_columns = []
        if self._provenance:
            extra_columns.append(Column(PROVENANCE_COLUMN, DataType.TEXT))
        if self._source_text:
            extra_columns.append(Column(SOURCE_TEXT_COLUMN, DataType.TEXT))
        if extra_columns:
            schema = TableSchema(
                name, list(schema.columns) + extra_columns,
            )
        table = Table(schema)
        rows = facts_to_rows(facts, schema)
        for row, doc_id, fact in zip(rows, fact_docs, facts):
            extras = []
            if self._provenance:
                extras.append(doc_id)
            if self._source_text:
                extras.append(fact.source_sentence)
            if extras:
                row = row[: len(row) - len(extras)] + tuple(extras)
            table.insert(row)
        self._assembled[name] = _Assembly(facts, fact_docs, table)
        return GeneratedTable(table, facts, doc_ids)

    def generate_into(self, db: Database, name: str,
                      documents: Iterable[Tuple[str, str]]) -> GeneratedTable:
        """Generate and register the table in *db* (replacing any old one).

        When the generation reuses the table this generator last
        installed in *db* under *name*, the database is left alone.
        """
        generated = self.generate(name, documents)
        assembly = self._assembled[name]
        if db.has_table(name):
            if db.table(name) is assembly.installed:
                return generated
            db.drop_table(name)
        db.create_table(generated.table.schema)
        target = db.table(name)
        for row in generated.table.rows():
            target.insert(row)
        assembly.installed = target
        return generated


def score_generated_cells(
    generated: Sequence[Dict[str, object]],
    gold: Sequence[Dict[str, object]],
) -> Dict[str, float]:
    """Cell-level precision/recall/F1 between two record lists.

    Records are matched greedily by shared cells; each (column, value)
    pair is one cell. This is E4's scoring function.
    """
    def cells(record: Dict[str, object]) -> set:
        return {
            (key, _canon(value)) for key, value in record.items()
            if value is not None
            and key not in (PROVENANCE_COLUMN, SOURCE_TEXT_COLUMN)
        }

    gen_cells = [cells(r) for r in generated]
    gold_cells = [cells(r) for r in gold]
    total_gold = sum(len(c) for c in gold_cells)
    total_gen = sum(len(c) for c in gen_cells)
    # Globally greedy 1:1 matching by overlap, best pairs first, so a
    # partially-overlapping gold record cannot steal another record's
    # exact match.
    overlaps = []
    for g, gold_set in enumerate(gold_cells):
        for i, gen_set in enumerate(gen_cells):
            overlap = len(gold_set & gen_set)
            if overlap > 0:
                overlaps.append((overlap, g, i))
    overlaps.sort(key=lambda t: (-t[0], t[1], t[2]))
    matched_gold = [False] * len(gold_cells)
    matched_gen = [False] * len(gen_cells)
    true_positive = 0
    for overlap, g, i in overlaps:
        if matched_gold[g] or matched_gen[i]:
            continue
        matched_gold[g] = True
        matched_gen[i] = True
        true_positive += overlap
    precision = true_positive / total_gen if total_gen else 0.0
    recall = true_positive / total_gold if total_gold else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}


def _canon(value: object) -> object:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        return value.strip().lower()
    return value
