"""Property tests of the CLI's report writer (need hypothesis)."""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from quiveralg.cli import _report_text  # noqa: E402

ODD_STRINGS = ["", "é", "\x00\x1f\n\t\"\\/", "  ", "\ud800", "\U0001f600", "ascii"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**200), 2**200)
    | st.floats()  # NaN, +-Infinity and -0.0 included
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
    | st.text()
    | st.sampled_from(ODD_STRINGS)
)
keys = st.text() | st.sampled_from(ODD_STRINGS)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(keys, inner, max_size=5),
    max_leaves=40,
)

#: nonempty lists of printable-ASCII strings: '"' and '\\' send a list past
#: the writer's one-join route, any other such list takes it
plain_string_lists = st.lists(
    st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E)), min_size=1, max_size=50
)


class StrSubclass(str):
    pass


@settings(max_examples=200, derandomize=True, deadline=None)
@given(json_values | plain_string_lists)
@example([])
@example({})
@example([[], {}, [[]], [{}]])
@example({"a": {"b": [], "c": {}}, "": [[[]]]})
# flat lists of plain strings: one join
@example(["v1", "2<1:1", "1<1:1*1<1:2", " !#/~", ""])
@example(["v1"])
@example({"count": 2, "paths": ["v1", "12<10:3*10<12:1"]})
# a string json escapes: the C encoder
@example(["v1", 'a"b'])
@example(["v1", "a\\b"])
@example(["v1", "\x7f"])
@example(["v1", "a\nb"])
@example(["v1", "é"])
@example(["v1", "\ud800"])
# not all exact str: the C encoder
@example(["a", 1])
@example([StrSubclass("a"), "b"])
@example(["a", StrSubclass("b")])
@example({"a": "x", "b": "y"})
@example([["v1", "v2"], ["1<1:1"], ["a\"b"]])
def test_writer_matches_indented_dumps(value):
    assert _report_text(value) == json.dumps(value, indent=2, sort_keys=True)
