"""Run the documentation examples embedded in module docstrings.

Keeps every ``>>>`` example in the public docs honest.
"""

import doctest
import importlib

import pytest

DOCTESTED_MODULES = [
    "repro.text.tokenizer",
    "repro.text.patterns",
    "repro.text.stemmer",
    "repro.text.chunker",
    "repro.storage.types",
    "repro.storage.document.jsonpath",
    "repro.storage.relational.database",
    "repro.storage.relational.sql_lexer",
    "repro.storage.relational.sql_parser",
    "repro.slm.embeddings",
    "repro.slm.generator",
    "repro.extraction.normalize",
    "repro.semql.intents",
    "repro.metering",
    "repro.loadgen.harness",
]


@pytest.mark.parametrize("module_name", DOCTESTED_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, "%d doctest failures in %s" % (
        result.failed, module_name
    )


def test_some_doctests_exist():
    total = 0
    for module_name in DOCTESTED_MODULES:
        module = importlib.import_module(module_name)
        total += doctest.testmod(module, verbose=False).attempted
    assert total >= 25
