"""jsonout.dumps writes exactly the text of json.dumps(..., indent=2, sort_keys=True)."""
from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volcano.jsonout import dumps

# Pieces that look like the separators and brackets dumps relies on.
_TRICKY = st.sampled_from(['\n', '"', "\\", "}, {", "},\n    {", ",\n  ", "é", "日本", " ", "\x00"])
_STRINGS = st.lists(st.one_of(_TRICKY, st.text(max_size=3)), max_size=4).map("".join)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True, allow_infinity=True), _STRINGS
)
_KEYS = st.one_of(st.integers(), st.booleans(), st.none(), st.floats(allow_nan=False))
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(_KEYS, children, max_size=3),
        st.lists(st.dictionaries(_STRINGS, _SCALARS, max_size=3), max_size=4),
        st.lists(st.dictionaries(_STRINGS, children, min_size=1, max_size=3), min_size=1, max_size=3),
    ),
    max_leaves=40,
)


def _reference(value):
    try:
        return json.dumps(value, indent=2, sort_keys=True)
    except TypeError:
        return TypeError


@settings(max_examples=500, deadline=None)
@given(_VALUES)
@example([])
@example({})
@example([[], {}, ()])
@example({"a": [{"x": "}, {"}, {"y": "},\n    {"}], "b": {1: [float("nan"), float("-inf")]}})
@example([{"k": "v"}, {}])
@example([{"k": "v"}, {"k": [1, 2]}])
@example([{"k": {"x": None}}])
@example({"": {"": [{"": None}]}})
def test_dumps_equals_json_dumps_indented(value):
    want = _reference(value)
    if want is TypeError:
        with pytest.raises(TypeError):
            dumps(value)
    else:
        assert dumps(value) == want


def test_dumps_rejects_what_json_dumps_rejects():
    for value in [{"a": object()}, [1, {2: 3, "x": 4}], {"rows": [{"a": {1, 2}}]}]:
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dumps(value)
