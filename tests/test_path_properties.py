"""Property tests of path enumeration (need hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from quiveralg import Quiver, enumerate_paths  # noqa: E402
from quiveralg import quiver  # noqa: E402
from quiveralg.quiver import _path_tree  # noqa: E402


@st.composite
def quivers(draw):
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    return Quiver(draw(st.lists(row, min_size=n, max_size=n)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(), st.integers(0, 4))
def test_path_count_identity(q, max_len):
    # sum over k <= max_len of 1^T C^k 1; exact in int64 at these sizes
    expected = sum(int(np.linalg.matrix_power(q.matrix(), k).sum()) for k in range(max_len + 1))
    assert len(enumerate_paths(q, max_len)) == expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(), st.integers(0, 4))
def test_token_budget_is_exact(q, max_len):
    # the arrows of all paths, sum over k of k 1^T C^k 1, are admitted at a
    # budget of exactly that many and refused at one fewer
    tokens = sum(p.length for p in enumerate_paths(q, max_len))
    # hypothesis refuses the function-scoped monkeypatch fixture
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quiver, "PATH_TOKEN_LIMIT", tokens)
        _path_tree(q, max_len)
        if tokens:
            mp.setattr(quiver, "PATH_TOKEN_LIMIT", tokens - 1)
            with pytest.raises(ValueError, match="arrow tokens"):
                _path_tree(q, max_len)
