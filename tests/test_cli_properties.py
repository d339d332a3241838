"""Property tests of the CLI's report writer (need hypothesis)."""

import contextlib
import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from quiveralg import Quiver, enumerate_paths, format_path, write_quiver_file  # noqa: E402
from quiveralg.cli import _report_chunks, main  # noqa: E402

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

#: nonempty lists of printable-ASCII strings, as a path listing is, '"' and
#: '\\' included
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
# flat lists of plain strings
@example(["v1", "2<1:1", "1<1:1*1<1:2", " !#/~", ""])
@example(["v1"])
@example({"count": 2, "paths": ["v1", "12<10:3*10<12:1"]})
# a string json escapes
@example(["v1", 'a"b'])
@example(["v1", "a\\b"])
@example(["v1", "\x7f"])
@example(["v1", "a\nb"])
@example(["v1", "é"])
@example(["v1", "\ud800"])
# not all exact str
@example(["a", 1])
@example([StrSubclass("a"), "b"])
@example(["a", StrSubclass("b")])
@example({"a": "x", "b": "y"})
@example([["v1", "v2"], ["1<1:1"], ["a\"b"]])
def test_writer_matches_indented_dumps(value):
    text = b"".join(_report_chunks(value)).decode()
    assert text == json.dumps(value, indent=2, sort_keys=True) + "\n"


#: paths a drawn listing may hold at most; longer lengths are cut back
LISTING_PATHS = 5000


@st.composite
def path_listings(draw):
    """A graph and a length 0..5: small graphs, graphs of 10 to 12 vertices
    (two-digit vertex numbers, names of mixed widths) with a few arrows,
    arrowless graphs and acyclic ones, the length cut back until the graph
    has at most ``LISTING_PATHS`` paths."""
    kind = draw(st.sampled_from(["small", "wide", "arrowless", "acyclic"]))
    n = draw(st.integers(1, 3) if kind == "small" else st.integers(10, 12) if kind == "wide" else st.integers(1, 12))
    c = np.zeros((n, n), dtype=int)
    if kind != "arrowless":
        vertex = st.integers(0, n - 1)
        for i, j, count in draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 2)), max_size=2 * n)):
            if kind != "acyclic" or i < j:
                c[i, j] += count
    max_len = draw(st.integers(0, 5))
    while sum(np.linalg.matrix_power(c, k).sum() for k in range(max_len + 1)) > LISTING_PATHS:
        max_len -= 1
    return Quiver(c.tolist()), max_len


@settings(max_examples=120, derandomize=True, deadline=None)
@given(listing=path_listings())
@example(listing=(Quiver([[0] * 11] * 11), 3))  # no arrow token: an empty token array
@example(listing=(Quiver([[2, 0], [1, 0]]), 0))
@example(listing=(Quiver(np.eye(12, k=-1, dtype=int).tolist()), 5))  # a chain: v1..v12, 2<1:1, ...
def test_paths_report_is_dumps_of_format_path(listing, tmp_path_factory):
    """The ``paths`` report, to a file and to stdout (a binary buffer, or a
    text stream without one), is byte-equal to ``json.dumps`` of the
    ``format_path`` names of ``enumerate_paths`` and a newline."""
    q, max_len = listing
    names = [format_path(p) for p in enumerate_paths(q, max_len)]
    want = json.dumps({"count": len(names), "paths": names}, indent=2, sort_keys=True) + "\n"
    tmp = tmp_path_factory.mktemp("paths")
    write_quiver_file(q, tmp / "g.json")
    argv = ["paths", "--graph", str(tmp / "g.json"), "--max-len", str(max_len)]
    binary, text = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--output", str(tmp / "r.json")]) == 0
        for stdout in (binary, text):
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0
    assert (tmp / "r.json").read_bytes() == want.encode()
    assert binary.buffer.getvalue() == want.encode()
    assert text.getvalue() == want
