"""Semantic Operator Synthesis and semantic operators (paper III.C)."""

from .catalog import ColumnBinding, QuestionFrame, SchemaCatalog, ValueHit
from .compiler import QueryCompiler
from .intents import Comparison, IntentFrame, analyze
from .logical import (
    AGG_FUNCS, FILTER_OPS, AggregateSpec, FilterSpec, JoinSpec, QuerySpec,
)
from .operators import SemanticOperators
from .synthesizer import OperatorSynthesizer

__all__ = [
    "ColumnBinding", "QuestionFrame", "SchemaCatalog", "ValueHit",
    "QueryCompiler",
    "Comparison", "IntentFrame", "analyze",
    "AGG_FUNCS", "FILTER_OPS", "AggregateSpec", "FilterSpec", "JoinSpec",
    "QuerySpec",
    "SemanticOperators",
    "OperatorSynthesizer",
]
