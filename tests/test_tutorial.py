"""The docs/TUTORIAL.md walkthrough, executed end to end.

If this suite fails, the tutorial is lying to users — fix the docs or
the code, never just the test.
"""

import pytest

from repro import HybridQAPipeline, SLMConfig, SmallLanguageModel
from repro.qa import load_pipeline, save_pipeline
from repro.metering import CostMeter
from repro.text.ner import Gazetteer
from tests.conftest import matches_number


@pytest.fixture
def pipe():
    gazetteer = Gazetteer()
    gazetteer.add("MATTER", ["Hartley v. Dunmore", "In re Calloway"])
    gazetteer.add("FIRM", ["Bexley & Stone", "Ferris LLP"])
    slm = SmallLanguageModel(SLMConfig(seed=0), gazetteer=gazetteer,
                             meter=CostMeter())
    pipe = HybridQAPipeline(slm, meter=CostMeter())
    pipe.add_sql([
        "CREATE TABLE matters (mid INT PRIMARY KEY, name TEXT, "
        "firm TEXT, quarter TEXT, billed FLOAT)",
        "INSERT INTO matters VALUES "
        "(1, 'Hartley v. Dunmore', 'Bexley & Stone', 'q2', 184000.0), "
        "(2, 'In re Calloway', 'Ferris LLP', 'q2', 95000.0)",
    ])
    pipe.declare_entity_columns("matters", ["name"])
    pipe.add_documents([
        ("filing-1", {"matter": "Hartley v. Dunmore", "type": "motion",
                      "status": "granted"}),
    ])
    pipe.add_texts([
        ("note-1", "Billable hours on Hartley v. Dunmore increased 18% "
                   "in Q2 2024. The discovery phase drove the workload."),
        ("note-2", "Billable hours on In re Calloway decreased 7% in "
                   "Q2 2024. The matter neared settlement."),
    ])
    assert pipe.generate_table("note_facts") == 2
    pipe.register_synonym("billings", "matters", "billed")
    pipe.register_display_column("matters", "name")
    pipe.build()
    return pipe


class TestTutorialFlow:
    def test_sql_route(self, pipe):
        answer = pipe.answer(
            "Find the total billings of all matters in Q2."
        )
        assert matches_number(answer, 279000.0)

    def test_generated_table_route(self, pipe):
        answer = pipe.answer(
            "How much did billable hours on Hartley v. Dunmore change "
            "in Q2 2024?"
        )
        assert matches_number(answer, 18.0)

    def test_comparison_route(self, pipe):
        answer = pipe.answer(
            "Compare the billable-hours change of Hartley v. Dunmore "
            "and In re Calloway in Q2 2024."
        )
        assert answer.metadata.get("winner") == "hartley v. dunmore"

    def test_explain_available(self, pipe):
        trace = pipe.explain(
            "Find the total billings of all matters in Q2."
        )
        assert "route=" in trace

    def test_uncertainty_gate(self, pipe):
        answer, estimate = pipe.answer_with_uncertainty(
            "What did the notes imply about settlement posture?",
            n_samples=4, seed=2,
        )
        assert "needs_review" in answer.metadata

    def test_ship_it(self, pipe, tmp_path):
        save_pipeline(pipe, str(tmp_path))
        device = load_pipeline(str(tmp_path), meter=CostMeter())
        device.ingest_incremental([
            ("note-3", "Billable hours on In re Calloway increased 4% "
                       "in Q3 2024."),
        ])
        answer = device.answer(
            "How much did billable hours on In re Calloway change in "
            "Q3 2024?"
        )
        assert matches_number(answer, 4.0)

    def test_graph_health(self, pipe):
        from repro.graphindex import bridge_report, describe

        report = bridge_report(pipe.graph)
        assert report.bridging >= 2  # both matters bridge modalities
        assert "bridging entities" in describe(pipe.graph)
