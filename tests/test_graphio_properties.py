"""Property tests of the graph file format (need hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from quiveralg import Quiver, parse_quiver_dict, quiver_to_dict  # noqa: E402


@st.composite
def quivers(draw):
    n = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return Quiver(draw(st.lists(row, min_size=n, max_size=n)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(quivers())
def test_dict_round_trip(q):
    assert parse_quiver_dict(quiver_to_dict(q)).c == q.c
