"""One write path: a maintained pipeline equals a fresh build.

Every text write — an append, a replaced id, one id named twice in a
call — is applied to the graph index and the retriever as a delta.
After any drawn sequence of writes, the maintained pipeline must equal
``build()`` over the same stores: graph nodes (ids, kinds, labels,
payloads), edge sets, neighbor views, PageRank, retriever state,
generated-table rows and every QA fingerprint.

The text pools aim at the cases a delta gets wrong most easily, and
``SCRIPTS`` reaches each of them for sure:

* **Reverse orientation.** Two texts derive the same undirected
  "exceed" RELATES edge from opposite ends; it must outlive either.
* **Tie order.** The exceeded/lost/gained texts put parallel CO_OCCURS
  and RELATES edges between the same two entities, derived by chunks
  that sort before or after one another. A delta appends a new RELATES
  edge behind the surviving ones, where a fresh build inserts edges in
  store order, so RELATES ties to one neighbor can sit in another
  order. That order is all that differs: CO_OCCURS always leads (a
  pair's RELATES edges need a chunk mentioning both, which keeps its
  CO_OCCURS edge), every RELATES edge weighs the same, and no reader
  looks at an edge's label. So views compared as (neighbor, kind,
  weight) sequences are equal, and so are PageRank and every answer.
* **Removed entity type.** FastShip is a record value (type
  ``VALUE``) that a chunk tags ``MISC``; a fresh build, chunks first,
  keeps ``MISC`` while a chunk names it and ``VALUE`` after.
* **Re-added node.** "Q1 2025", "14%" and "High Lipid" are in no stored
  text, so replacing the one chunk naming them drops their nodes, and
  a later write adds them back.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import _lake_parts, build_hybrid_system, generate_lake
from repro.graphindex.centrality import pagerank

SEED = 7

POOLS = {
    "ecommerce": [
        "The Alpha Camera exceeded the Gamma Widget in Q2 2024.",
        "The Gamma Widget exceeded the Alpha Camera. The Alpha Camera "
        "lost to the Gamma Widget in Q3 2024.",
        "The Alpha Camera gained on the Gamma Widget in Q4 2024.",
        "Orders shipped with FastShip reached the Gamma Widget buyers.",
        "Customer satisfaction with the Gamma Widget increased 9% in "
        "Q1 2025.",
        "Nothing at all was noted here.",
    ],
    "healthcare": [
        "Gastrostatin exceeded Dermastatin in Q2 2024.",
        "Dermastatin exceeded Gastrostatin. Gastrostatin lost to "
        "Dermastatin in Q3 2024.",
        "Gastrostatin gained on Dermastatin in Q4 2024.",
        "Patients on Dermastatin showed a High Lipid profile.",
        "Adverse events for Dermastatin decreased 14% in Q1 2025.",
        "Nothing at all was noted here.",
    ],
}

#: Stored ids (a write replaces them) and fresh ids sorting before,
#: among and after the stored ones.
IDS = {
    "ecommerce": ["review-000", "review-001", "aa-new", "rz-new",
                  "zz-new"],
    "healthcare": ["note-000", "note-001", "aa-new", "nz-new", "zz-new"],
}


def _writes(domain):
    doc = st.tuples(st.sampled_from(IDS[domain]),
                    st.sampled_from(POOLS[domain]))
    return st.lists(st.lists(doc, min_size=1, max_size=3),
                    min_size=1, max_size=3)


def _fresh(lake, texts):
    """``build()`` over the lake's stores with *texts* written in."""
    _, pipeline = build_hybrid_system(lake, SEED)
    pipeline.add_texts(texts.items())
    for name in pipeline._generated_tables:
        pipeline.generate_table(name)
    pipeline.build()
    return pipeline


def _graph_state(pipeline):
    graph = pipeline.graph
    return (
        {node.node_id: (node.kind, node.label, node.payload)
         for node in graph.nodes()},
        {(frozenset((edge.source, edge.target)), edge.kind, edge.label)
         for edge in graph.edges()},
        {node.node_id: [(edge.target, edge.kind, edge.weight)
                        for edge, _ in graph.neighbors(node.node_id)]
         for node in graph.nodes()},
        pagerank(graph),
    )


def _retriever_state(pipeline):
    core = pipeline._core_retriever
    bm25 = core._fallback
    return (core._chunks, core._entity_tokens, core._centrality,
            bm25._chunks, bm25._doc_len, bm25._terms, bm25._avg_len,
            bm25._postings)


def _tables(pipeline):
    return {name: list(pipeline.db.table(name).rows())
            for name in pipeline._generated_tables}


def _fingerprints(pipeline, questions):
    return [pipeline.answer(q).fingerprint() for q in questions]


def _check(domain, writes):
    """Apply *writes* (a list of ``ingest_incremental`` calls) to a
    built pipeline, comparing it with a fresh build after each."""
    lake = generate_lake(domain, SEED)
    texts = dict(_lake_parts(lake)[1])
    questions = [p.question for p in lake.qa_pairs(per_kind=2)]
    questions += POOLS[domain][:5]
    _, maintained = build_hybrid_system(lake, SEED)
    graph = maintained.graph
    for docs in writes:
        maintained.ingest_incremental(docs)
        texts.update(docs)
        fresh = _fresh(lake, texts)
        assert maintained.graph is graph
        assert _graph_state(maintained) == _graph_state(fresh)
        assert _retriever_state(maintained) == _retriever_state(fresh)
        assert _tables(maintained) == _tables(fresh)
        assert (_fingerprints(maintained, questions)
                == _fingerprints(fresh, questions))


@pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_write_is_a_delta_equal_to_a_fresh_build(domain, data):
    _check(domain, data.draw(_writes(domain)))


#: Write sequences (pool indexes) that reach each hard case for sure.
SCRIPTS = {
    # Ties to one neighbor: a later chunk's RELATES edge sorts first.
    "tie_order": [[("zz-new", 0)], [("aa-new", 2)], [("zz-new", 5)]],
    # One undirected RELATES edge derived in both orientations; removing
    # either chunk keeps it.
    "reverse_orientation": [[("aa-new", 0), ("zz-new", 1)],
                            [("aa-new", 5)], [("aa-new", 0)],
                            [("zz-new", 5)]],
    # A record value a chunk types otherwise, then the chunk replaced.
    "removed_entity_type": [[(1, 3)], [(1, 5)], [("aa-new", 3)],
                            [("zz-new", 3)], [("aa-new", 5)]],
    # Nodes only one chunk names, dropped and added back.
    "re_added_node": [[("aa-new", 4)], [("aa-new", 5)], [(0, 4)],
                      [(0, 4), (0, 5), (0, 4)]],
}


@pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_scripted_hard_cases(domain, script):
    # An int id is an index into the domain's ids (stored ones first).
    _check(domain, [
        [(IDS[domain][doc_id] if isinstance(doc_id, int) else doc_id,
          POOLS[domain][text]) for doc_id, text in call]
        for call in SCRIPTS[script]
    ])
