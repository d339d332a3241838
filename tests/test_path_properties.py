"""Property tests of path enumeration (need hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from quiveralg import Arrow, FockSpace, Quiver, enumerate_paths  # noqa: E402
from quiveralg import quiver  # noqa: E402
from helpers import quivers, reference_path_tree  # noqa: E402


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(3, 2), st.integers(0, 4))
def test_path_count_identity(q, max_len):
    # sum over k <= max_len of 1^T C^k 1; exact in int64 at these sizes
    expected = sum(int(np.linalg.matrix_power(q.matrix(), k).sum()) for k in range(max_len + 1))
    assert len(enumerate_paths(q, max_len)) == expected


@settings(max_examples=100, derandomize=True, deadline=None)
@given(quivers(3, 2), st.integers(0, 5))
def test_fock_arrays_equal_reference_tree(q, max_len):
    # parent, last_arrow, lengths and targets, bit for bit and with their dtypes
    space = FockSpace(q, max_len)
    got = space.parent, space.last_arrow, space.lengths, space.targets
    for g, w in zip(got, reference_path_tree(q, max_len)):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(3, 2), st.integers(0, 4))
def test_token_budget_is_exact(q, max_len):
    # the arrows of all paths, sum over k of k 1^T C^k 1, are admitted at a
    # budget of exactly that many and refused at one fewer
    tokens = sum(p.length for p in enumerate_paths(q, max_len))
    # hypothesis refuses the function-scoped monkeypatch fixture
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quiver, "PATH_TOKEN_LIMIT", tokens)
        FockSpace(q, max_len)
        if tokens:
            mp.setattr(quiver, "PATH_TOKEN_LIMIT", tokens - 1)
            with pytest.raises(ValueError, match="arrow tokens"):
                FockSpace(q, max_len)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_block_start_is_first_position_in_arrows(data):
    n = data.draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    q = Quiver(data.draw(st.lists(row, min_size=n, max_size=n)))
    arrows = list(q.arrows())
    blocks = data.draw(st.permutations([(i, j) for i in range(n) for j in range(n)]))
    # asked in any order, each block starts where arrows() reaches it
    for i, j in blocks:
        start = q.block_start(i, j)
        assert start == sum(1 for a in arrows if (a.target, a.source) < (i, j))
        if q.c[i][j]:
            assert arrows[start] == Arrow(j, i, 0)
    assert q.total_arrows() == len(arrows)
