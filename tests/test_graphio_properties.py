"""Property tests of the graph file format (need hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402

from quiveralg import parse_quiver_dict, quiver_to_dict  # noqa: E402
from helpers import quivers  # noqa: E402


@settings(max_examples=200, derandomize=True, deadline=None)
@given(quivers(8, 3))
def test_dict_round_trip(q):
    assert parse_quiver_dict(quiver_to_dict(q)) == q
