"""Property tests of the quiver's int64 matrix and its arrow layout (need
hypothesis): every view equals the one read entry by entry off a tuple
matrix, whichever form the matrix is given in."""

import pickle

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from quiveralg import Quiver, apply_permutation, are_isomorphic  # noqa: E402
from helpers import ReferenceLayout, reference_are_isomorphic  # noqa: E402

FORMS = {
    "list": lambda rows: rows,
    "int array": lambda rows: np.array(rows, dtype=np.int64),
    "float array": lambda rows: np.array(rows, dtype=float),
}


def matrices(n):
    return st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_views_equal_the_tuple_reference(data):
    n = data.draw(st.integers(1, 8))
    rows = data.draw(matrices(n))
    q = Quiver(FORMS[data.draw(st.sampled_from(sorted(FORMS)))](rows))
    ref = ReferenceLayout(rows)
    assert q.c.dtype == np.int64 and not q.c.flags.writeable and q.c.tolist() == rows
    assert q._nonempty_blocks == ref.blocks
    assert list(q.arrows()) == ref.arrows
    assert [list(q.arrows_from(v)) for v in range(n)] == ref.arrows_from
    assert [q.block_start(i, j) for i in range(n) for j in range(n)] == ref.starts[:-1]
    assert q.total_arrows() == ref.starts[-1]
    for got, want in zip(q.arrow_ends() + q._by_source, ref.arrow_ends + ref.by_source):
        assert got.tolist() == want.tolist()

    tau = tuple(data.draw(st.permutations(range(n))))
    permuted = apply_permutation(q, tau)
    assert permuted.c.tolist() == ref.permuted(tau)
    assert permuted == Quiver(ref.permuted(tau)) and hash(permuted) == hash(Quiver(ref.permuted(tau)))
    other = data.draw(matrices(n))
    for rows2 in (ref.permuted(tau), other):
        assert are_isomorphic(q, Quiver(rows2)) == reference_are_isomorphic(rows, rows2)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_checked_counts_build_the_same_quiver(data):
    """``Quiver._of_counts``, which takes a fresh int64 matrix as it is,
    builds the quiver ``Quiver`` builds from the same counts, and the keyed
    relabelling ``apply_permutation`` builds with it equals the dense gather
    c[tau[i]][tau[j]]."""
    n = data.draw(st.integers(1, 8))
    rows = data.draw(st.lists(st.lists(st.integers(0, 2**40), min_size=n, max_size=n), min_size=n, max_size=n))
    q, checked = Quiver(rows), Quiver._of_counts(np.array(rows, dtype=np.int64))
    assert checked == q and hash(checked) == hash(q)
    assert not checked.c.flags.writeable and checked.c.dtype == np.int64
    for got, want in ((checked._keys, q._keys), (checked._sizes, q._sizes), (checked._starts, q._starts)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    back = pickle.loads(pickle.dumps(checked))
    assert back == q and hash(back) == hash(q) and not back.c.flags.writeable

    tau = list(data.draw(st.permutations(range(n))))
    gathered = Quiver(q.c[np.ix_(tau, tau)])
    permuted = apply_permutation(q, tau)
    assert permuted == gathered and hash(permuted) == hash(gathered)
    assert permuted._keys.tobytes() == gathered._keys.tobytes()
    assert permuted._starts.tobytes() == gathered._starts.tobytes()
