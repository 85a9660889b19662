"""Multi-Entity QA: hybrid pipeline, TableQA, text QA, federation."""

from .answer import (
    ANSWER_SYSTEM_HYBRID, ANSWER_SYSTEM_RAG, ANSWER_SYSTEM_TEXT2SQL, Answer,
)
from .compare import ComparativeQA, ComparisonFrame, detect_comparison
from .executor import PlanExecutor
from .federation import FederatedRouter, RouteDecision, best_answer
from .pipeline import HybridQAPipeline
from .plan import (
    ROUTE_HYBRID, ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED, FederatedPlan,
    PlanStage, compile_plan, render_plan,
)
from .session import QASession
from .speculative import PlanArm, extract_arms
from .state import load_pipeline, save_pipeline
from .tableqa import TableQAEngine
from .textqa import TextQAEngine

__all__ = [
    "ANSWER_SYSTEM_HYBRID", "ANSWER_SYSTEM_RAG", "ANSWER_SYSTEM_TEXT2SQL",
    "Answer",
    "ComparativeQA", "ComparisonFrame", "detect_comparison",
    "ROUTE_HYBRID", "ROUTE_STRUCTURED", "ROUTE_UNSTRUCTURED",
    "FederatedRouter", "RouteDecision", "best_answer",
    "FederatedPlan", "PlanStage", "PlanExecutor",
    "PlanArm", "extract_arms",
    "compile_plan", "render_plan",
    "HybridQAPipeline",
    "QASession",
    "load_pipeline", "save_pipeline",
    "TableQAEngine",
    "TextQAEngine",
]
