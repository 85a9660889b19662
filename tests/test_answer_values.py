"""An Answer is a value: once built, no holder can change it.

The frozen containers must be invisible to every reader — ``repr``,
``==``, ``json.dumps`` and ``fingerprint()`` equal those of the plain
list/dict rendering — while every mutator raises ``TypeError``. A
stage that decides something derives a new answer; the original stays
as it was.
"""

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.qa import Answer
from repro.qa.answer import FrozenDict, FrozenList, freeze

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False), st.text(max_size=8),
)
JSON_LIKE = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.tuples(inner, inner),
    ),
    max_leaves=20,
)
METADATA = st.dictionaries(st.text(max_size=6), JSON_LIKE, max_size=5)

LIST_MUTATORS = [
    ("__setitem__", (0, 1)), ("__delitem__", (0,)), ("__iadd__", ([1],)),
    ("__imul__", (2,)), ("append", (1,)), ("extend", ([1],)),
    ("insert", (0, 1)), ("pop", ()), ("remove", (1,)), ("clear", ()),
    ("sort", ()), ("reverse", ()),
]
DICT_MUTATORS = [
    ("__setitem__", ("k", 1)), ("__delitem__", ("k",)),
    ("__ior__", ({"k": 1},)), ("clear", ()), ("pop", ("k",)),
    ("popitem", ()), ("setdefault", ("k", 1)), ("update", ({"k": 1},)),
]


def containers(value):
    """Every list/dict node of *value* outside tuples (which pass
    through freezing as they are), outermost first."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from containers(item)
    elif isinstance(value, list):
        yield value
        for item in value:
            yield from containers(item)


def plain_fingerprint(answer, value, metadata):
    return repr((answer.text, value, answer.confidence, answer.grounded,
                 answer.system, answer.provenance,
                 sorted(metadata.items())))


class TestFrozenRendering:
    @given(value=JSON_LIKE, metadata=METADATA)
    def test_reads_equal_the_plain_rendering(self, value, metadata):
        answer = Answer(text="t", value=value, confidence=0.5,
                        metadata=metadata)
        assert answer.value == value and answer.metadata == metadata
        assert repr(answer.value) == repr(value)
        assert repr(answer.metadata) == repr(metadata)
        assert json.dumps(answer.value) == json.dumps(value)
        assert json.dumps(answer.metadata) == json.dumps(metadata)
        assert answer.fingerprint() == plain_fingerprint(answer, value,
                                                          metadata)
        assert answer == Answer(text="t", value=value, confidence=0.5,
                                metadata=metadata)

    @given(value=JSON_LIKE, metadata=METADATA)
    def test_every_mutator_raises(self, value, metadata):
        answer = Answer(text="t", value=value, metadata=metadata)
        before = answer.fingerprint()
        for node in list(containers(answer.value)) + list(
                containers(answer.metadata)):
            assert isinstance(node, (FrozenList, FrozenDict))
            mutators = (LIST_MUTATORS if isinstance(node, list)
                        else DICT_MUTATORS)
            for name, args in mutators:
                with pytest.raises(TypeError):
                    getattr(node, name)(*args)
        with pytest.raises(dataclasses.FrozenInstanceError):
            answer.confidence = 1.0
        assert answer.fingerprint() == before

    @given(value=JSON_LIKE, metadata=METADATA)
    def test_the_callers_containers_are_not_aliased(self, value,
                                                     metadata):
        value, metadata = copy.deepcopy((value, metadata))
        answer = Answer(text="t", value=value, metadata=metadata)
        before = answer.fingerprint()
        for node in list(containers(value)) + list(containers(metadata)):
            if isinstance(node, list):
                node.append("intruder")
            else:
                node["intruder!"] = 1   # longer than any drawn key
        assert answer.fingerprint() == before

    def test_tuples_and_scalars_pass_through(self):
        row = (1, "a")
        answer = Answer(text="t", value=row)
        assert answer.value is row
        assert freeze(3.5) == 3.5 and freeze("x") == "x"

    def test_copy_and_pickle_round_trip(self):
        answer = Answer(text="t", value=[{"a": [1, 2]}],
                        metadata={"degradation": {"events": [{"k": 1}]}})
        for clone in (copy.copy(answer), copy.deepcopy(answer),
                      pickle.loads(pickle.dumps(answer))):
            assert clone == answer
            assert clone.fingerprint() == answer.fingerprint()
            assert isinstance(clone.metadata["degradation"]["events"],
                              FrozenList)


class TestDerivedValues:
    def test_replace_leaves_the_original_untouched(self):
        original = Answer(text="12", value=[12.0], confidence=0.8,
                          metadata={"plan": "p", "nested": {"a": [1]}})
        before = original.fingerprint()
        derived = dataclasses.replace(original, confidence=0.9)
        assert derived.confidence == 0.9
        assert original.fingerprint() == before
        # Already-frozen containers are shared, not refrozen.
        assert derived.metadata is original.metadata
        assert derived.value is original.value

    def test_with_metadata_keeps_key_order(self):
        original = Answer(text="x", metadata={"reason": "r", "route": "s"})
        derived = original.with_metadata(route="t", degraded=True)
        assert list(derived.metadata) == ["reason", "route", "degraded"]
        assert derived.metadata["route"] == "t"
        assert original.metadata == {"reason": "r", "route": "s"}
        assert isinstance(derived.metadata, FrozenDict)
        assert derived == dataclasses.replace(
            original, metadata={**original.metadata, "route": "t",
                                "degraded": True})
        with pytest.raises(dataclasses.FrozenInstanceError):
            derived.text = "y"

    @given(value=JSON_LIKE, metadata=METADATA, extra=METADATA)
    def test_with_metadata_is_replace(self, value, metadata, extra):
        original = Answer(text="t", value=value, metadata=metadata)
        derived = original.with_metadata(**extra)
        via_replace = dataclasses.replace(
            original, metadata={**original.metadata, **extra})
        assert derived == via_replace
        assert repr(derived) == repr(via_replace)
        assert derived.fingerprint() == via_replace.fingerprint()
        assert derived.value is original.value
        for node in containers(derived.metadata):
            assert isinstance(node, (FrozenList, FrozenDict))
