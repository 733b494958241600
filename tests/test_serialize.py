"""`serialize.dumps` writes the bytes of json.dumps(sort_keys=True, indent=2).

The standard library's encoder stays here as the reference: `dumps` is the
one writer of reports and of the command line's json output, and every
pinned report depends on it matching json byte for byte.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratify.serialize import dumps


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# quotes, backslashes, control characters, non-ASCII text and lone surrogates
CHARS = st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x00\x08\x0c\x1f\x7f\x80\u00a0\u2028\uffff\U0001f600\n\r\t'),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, categories=["Cs"]),
)
TEXT = st.text(CHARS, max_size=12)
INTS = st.one_of(st.integers(), st.integers(-2**200, 2**200),
                 st.sampled_from([0, -1, 2**63, 2**64, -2**64, 2**64 + 1]))
LEAVES = st.one_of(TEXT, INTS, st.booleans(), st.none())
DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=500, deadline=None)
@given(DOCUMENTS)
def test_dumps_writes_the_bytes_of_json(value):
    assert dumps(value) == reference(value)


@pytest.mark.parametrize("value", [
    {}, [], (), "", 0, True, False, None, [[]], {"": {}}, [{}, [], ()],
    {"b": 1, "a": [2, "\ud800"], "A": None}, -2**64 - 1,
])
def test_dumps_matches_json_on_edge_cases(value):
    assert dumps(value) == reference(value)


@pytest.mark.parametrize("name", ["cubic3fold", "cubicsurf", "cubiccurve", "binary12"])
def test_dumps_matches_json_on_every_report(name, request):
    value = request.getfixturevalue(f"{name}_report").to_jsonable()
    assert dumps(value) == reference(value)


@pytest.mark.parametrize("value", [
    1.5, [0, 1.0], {1, 2}, {"a": frozenset()}, {1: "one"}, [{"a": 1, 2: "b"}],
])
def test_dumps_refuses_what_to_jsonable_never_returns(value):
    with pytest.raises(TypeError):
        dumps(value)
