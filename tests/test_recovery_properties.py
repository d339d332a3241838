"""Property test of recovery under vertex relabelling (needs hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from quiveralg import Quiver, apply_permutation, are_isomorphic, recover, scramble  # noqa: E402


@st.composite
def relabelled_quivers(draw):
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    q = Quiver(draw(st.lists(row, min_size=n, max_size=n)))
    tau = draw(st.permutations(range(n)))
    return q, tau


@settings(max_examples=100, derandomize=True, deadline=None)
@given(relabelled_quivers(), st.integers(0, 2**32 - 1))
def test_recovery_is_invariant_under_relabelling(q_tau, seed):
    q, tau = q_tau
    hidden = apply_permutation(q, tau)
    report = recover(scramble(hidden, seed))
    recovered = Quiver(report.c_recovered)
    assert report.witness is not None
    assert apply_permutation(recovered, report.witness) == hidden
    assert are_isomorphic(recovered, q) is not None
