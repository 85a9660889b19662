"""Construction of the semantic-aware heterogeneous graph index.

Implements the paper's Section III.A pipeline: text chunks become chunk
nodes; the SLM's lightweight tagging yields entity nodes and
chunk→entity MENTIONS edges; entities co-mentioned in one chunk get
CO_OCCURS edges; subject–verb–object patterns in sentences become
labeled RELATES edges (the "relational cues", e.g. "Customer X
purchased Product Y"); structured
rows and documents are projected in as record nodes DESCRIBES-linked to
the entities they mention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..errors import GraphIndexError
from ..metering import CostMeter, GLOBAL_METER
from ..slm.model import SmallLanguageModel
from ..storage.document.store import DocumentStore
from ..storage.document.jsonpath import select_one
from ..storage.relational.table import Table
from ..text.chunker import Chunk
from ..text.pos import VERB, tag_tokens
from ..text.tokenizer import split_sentences, tokenize
from ..text.stemmer import stem
from .hetgraph import HeterogeneousGraph
from .nodes import (
    EDGE_CO_OCCURS, EDGE_DESCRIBES, EDGE_MENTIONS, EDGE_NEXT, EDGE_RELATES,
    NODE_CHUNK, NODE_ENTITY, NODE_RECORD, GraphEdge, GraphNode, chunk_key,
    entity_key, record_key,
)


@dataclass
class BuilderConfig:
    """Ablation switches for graph construction (E7).

    entity_nodes:
        When False, only chunk nodes and NEXT edges are built — the
        chunk-only baseline ablation.
    relation_edges:
        When False, sentence-level relational cues are skipped.
    cooccurrence_edges:
        When False, entity–entity CO_OCCURS edges are skipped.
    sequence_edges:
        When False, chunk→chunk NEXT edges are skipped.
    """

    entity_nodes: bool = True
    relation_edges: bool = True
    cooccurrence_edges: bool = True
    sequence_edges: bool = True


class GraphIndexBuilder:
    """Incrementally assemble a :class:`HeterogeneousGraph`."""

    def __init__(self, slm: SmallLanguageModel,
                 config: Optional[BuilderConfig] = None,
                 meter: Optional[CostMeter] = None):
        self._slm = slm
        self._config = config or BuilderConfig()
        self._meter = meter if meter is not None else GLOBAL_METER
        self._graph = HeterogeneousGraph(meter=self._meter)

    # ------------------------------------------------------------------
    # Text side
    # ------------------------------------------------------------------
    def add_chunks(self, chunks: Sequence[Chunk]) -> None:
        """Index text chunks: nodes, entity tagging, cue extraction.

        Each chunk node's payload keeps the chunk's provenance, which
        :meth:`remove_chunks` reads back: under ``etypes`` the type it
        saw first for each entity it mentions, under ``relates`` the
        ``[a, b, label]`` RELATES triples it derived. An entity's type
        is the one the first chunk in store order — ``(doc_id,
        position)`` — saw, or ``VALUE`` when only records link to it;
        chunks added in store order to an empty graph keep the first
        type tagged, and a later call re-settles the entities it finds
        already in the graph.
        """
        created: Dict[str, None] = {}
        settle: Dict[str, None] = {}
        previous_by_doc: Dict[str, str] = {}
        for chunk in chunks:
            ck = chunk_key(chunk.chunk_id)
            etypes: Dict[str, str] = {}
            relates: List[List[str]] = []
            self._graph.add_node(GraphNode(
                ck, NODE_CHUNK, chunk.text[:80],
                payload={"doc_id": chunk.doc_id, "text": chunk.text,
                         "position": chunk.position, "etypes": etypes,
                         "relates": relates},
            ))
            if self._config.sequence_edges:
                prev = previous_by_doc.get(chunk.doc_id)
                if prev is not None:
                    self._graph.add_edge(GraphEdge(prev, ck, EDGE_NEXT))
                previous_by_doc[chunk.doc_id] = ck
            if not self._config.entity_nodes:
                continue
            entities = self._slm.tag_entities(chunk.text)
            seen_norms: List[str] = []
            for entity in entities:
                ek = entity_key(entity.norm)
                etypes.setdefault(ek, entity.etype)
                if self._graph.add_node(GraphNode(
                        ek, NODE_ENTITY, entity.norm,
                        payload={"etype": entity.etype})):
                    created[ek] = None
                elif ek not in created:
                    settle[ek] = None
                self._graph.add_edge(GraphEdge(ck, ek, EDGE_MENTIONS))
                if entity.norm not in seen_norms:
                    seen_norms.append(entity.norm)
            if self._config.cooccurrence_edges:
                for i, a in enumerate(seen_norms):
                    for b in seen_norms[i + 1:]:
                        self._graph.add_edge(GraphEdge(
                            entity_key(a), entity_key(b), EDGE_CO_OCCURS,
                            weight=0.5,
                        ))
            if self._config.relation_edges:
                self._extract_relation_cues(chunk, entities, relates)
        for ek in settle:
            self._settle_etype(ek)

    def _settle_etype(self, ek: str) -> None:
        """Give entity *ek* the type the first chunk in store order saw
        (``VALUE`` when no chunk saw it: only records link to it)."""
        seen = [chunk.payload for _, chunk
                in self._graph.neighbors(ek, (EDGE_MENTIONS,))
                if ek in chunk.payload["etypes"]]
        etype = "VALUE"
        if seen:
            first = min(seen, key=lambda p: (p["doc_id"], p["position"]))
            etype = first["etypes"][ek]
        self._graph.node(ek).payload["etype"] = etype

    def _extract_relation_cues(self, chunk: Chunk, entities,
                               relates: List[List[str]]) -> None:
        """Subject–verb–object cues within each sentence of the chunk,
        each recorded in *relates*."""
        offset = 0
        for sentence in split_sentences(chunk.text):
            start = chunk.text.find(sentence, offset)
            if start < 0:
                continue
            end = start + len(sentence)
            offset = end
            in_sentence = [
                e for e in entities if start <= e.start and e.end <= end
            ]
            if len(in_sentence) < 2:
                continue
            tagged = tag_tokens(tokenize(sentence))
            verbs = [
                (t.token.start + start, t.token.lower())
                for t in tagged if t.tag == VERB
            ]
            if not verbs:
                continue
            ordered = sorted(in_sentence, key=lambda e: e.start)
            for a, b in zip(ordered, ordered[1:]):
                between = [
                    v for pos, v in verbs if a.end <= pos <= b.start
                ]
                if not between:
                    continue
                triple = [entity_key(a.norm), entity_key(b.norm),
                          stem(between[0])]
                if triple not in relates:
                    relates.append(triple)
                self._graph.add_edge(GraphEdge(
                    triple[0], triple[1], EDGE_RELATES, label=triple[2],
                    weight=1.5,
                ))

    def remove_chunks(self, chunk_ids: Iterable[str]) -> None:
        """Take chunks out of the graph, with what only they derived.

        A chunk node goes with its MENTIONS and NEXT edges. Of what it
        shares with other chunks, a CO_OCCURS edge stays while a
        remaining chunk mentions both its ends, a RELATES edge while a
        remaining chunk lists it in its ``relates`` provenance, and an
        entity while anything still links to it — its type re-settled
        as :meth:`add_chunks` describes. Unknown ids are ignored.
        """
        graph = self._graph
        touched: Dict[str, None] = {}
        cues: Dict[tuple, None] = {}
        for chunk_id in chunk_ids:
            ck = chunk_key(chunk_id)
            if not graph.has_node(ck):
                continue
            for edge, _ in graph.neighbors(ck, (EDGE_MENTIONS,)):
                touched[edge.target] = None
            for a, b, label in graph.remove_node(ck).payload["relates"]:
                cues[(a, b, label)] = None
        for ek in touched:
            for edge, other in graph.neighbors(ek, (EDGE_CO_OCCURS,)):
                if (other.node_id in touched and next(
                        self._mentioning(ek, other.node_id), None) is None):
                    graph.remove_edge(edge)
        for a, b, label in cues:
            # The reverse triple derives the same undirected edge.
            if not any([a, b, label] in relates or [b, a, label] in relates
                       for relates in self._mentioning(a, b)):
                graph.remove_edge(GraphEdge(a, b, EDGE_RELATES, label))
        for ek in touched:
            if graph.degree(ek):
                self._settle_etype(ek)
            else:
                graph.remove_node(ek)

    def _mentioning(self, a: str, b: str) -> Iterator[List[List[str]]]:
        """``relates`` of each chunk that mentions both *a* and *b*."""
        graph = self._graph
        if not (graph.has_node(a) and graph.has_node(b)):
            return
        with_a = {chunk.node_id for _, chunk
                  in graph.neighbors(a, (EDGE_MENTIONS,))}
        for _, chunk in graph.neighbors(b, (EDGE_MENTIONS,)):
            if chunk.node_id in with_a:
                yield chunk.payload["relates"]

    # ------------------------------------------------------------------
    # Structured side
    # ------------------------------------------------------------------
    def add_table(self, table: Table, entity_columns: Sequence[str],
                  label_column: Optional[str] = None) -> None:
        """Project relational rows in as record nodes.

        Each row becomes a record node DESCRIBES-linked to the entity
        node of every *entity_columns* value; ``label_column`` names the
        row (defaults to the primary key or first entity column).
        """
        if not self._config.entity_nodes:
            return
        schema = table.schema
        for col in entity_columns:
            schema.index_of(col)  # validate early
        label_col = label_column or schema.primary_key or entity_columns[0]
        for row_id, row in table.scan():
            rk = record_key(schema.name, row_id)
            label = str(row[schema.index_of(label_col)])
            self._graph.add_node(GraphNode(
                rk, NODE_RECORD, label,
                payload={"table": schema.name, "row_id": row_id,
                         "row": dict(zip(schema.column_names(), row))},
            ))
            for col in entity_columns:
                value = row[schema.index_of(col)]
                if value is None:
                    continue
                norm = str(value).strip().lower()
                ek = entity_key(norm)
                self._graph.add_node(GraphNode(
                    ek, NODE_ENTITY, norm, payload={"etype": "VALUE"},
                ))
                self._graph.add_edge(GraphEdge(rk, ek, EDGE_DESCRIBES))

    def add_documents(self, store: DocumentStore,
                      entity_paths: Sequence[str],
                      label_path: Optional[str] = None) -> None:
        """Project semi-structured documents in as record nodes."""
        if not self._config.entity_nodes:
            return
        for doc_id, document in store.scan():
            rk = record_key("doc", doc_id)
            label = str(
                select_one(document, label_path) if label_path else doc_id
            )
            self._graph.add_node(GraphNode(
                rk, NODE_RECORD, label,
                payload={"source": "document", "doc_id": doc_id},
            ))
            for path in entity_paths:
                value = select_one(document, path)
                if value is None:
                    continue
                norm = str(value).strip().lower()
                ek = entity_key(norm)
                self._graph.add_node(GraphNode(
                    ek, NODE_ENTITY, norm, payload={"etype": "VALUE"},
                ))
                self._graph.add_edge(GraphEdge(rk, ek, EDGE_DESCRIBES))

    # ------------------------------------------------------------------
    def build(self) -> HeterogeneousGraph:
        """Return the assembled graph."""
        if self._graph.n_nodes == 0:
            raise GraphIndexError("graph is empty: nothing was added")
        return self._graph
