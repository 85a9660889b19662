"""Benchmark substrate: synthetic lakes, runners, reporting."""

from .datagen.ecommerce import (
    EcommerceLake, LakeSpec, generate_ecommerce_lake,
)
from .datagen.healthcare import (
    HealthcareLake, HealthSpec, generate_healthcare_lake,
)
from .datagen.queries import (
    KIND_COMPARISON, KIND_CROSS_MODAL, KIND_STRUCTURED_AGG,
    KIND_STRUCTURED_ENTITY, KIND_UNSTRUCTURED_FACT, QA_KINDS, QAPair,
    RetrievalQuery,
)
from .reporting import format_cell, print_report, render_series, render_table
from .runner import (
    QASystem, SuiteResult, build_hybrid_system, build_rag_system,
    build_text2sql_system, generate_lake, run_all_systems, run_qa_suite,
)

__all__ = [
    "EcommerceLake", "LakeSpec", "generate_ecommerce_lake",
    "HealthcareLake", "HealthSpec", "generate_healthcare_lake",
    "KIND_COMPARISON", "KIND_CROSS_MODAL", "KIND_STRUCTURED_AGG",
    "KIND_STRUCTURED_ENTITY", "KIND_UNSTRUCTURED_FACT", "QA_KINDS",
    "QAPair", "RetrievalQuery",
    "format_cell", "print_report", "render_series", "render_table",
    "QASystem", "SuiteResult", "build_hybrid_system", "build_rag_system",
    "build_text2sql_system", "generate_lake", "run_all_systems",
    "run_qa_suite",
]
