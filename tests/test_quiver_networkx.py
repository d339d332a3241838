"""The isomorphism search against networkx's VF2 multigraph matcher."""

import pytest

nx = pytest.importorskip("networkx")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from networkx.algorithms.isomorphism import MultiDiGraphMatcher  # noqa: E402

from quiveralg import Quiver, apply_permutation, are_isomorphic  # noqa: E402
from helpers import signature_multiset  # noqa: E402


def multigraph(q):
    """One networkx edge source -> target per arrow."""
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(q.n))
    for i in range(q.n):
        for j in range(q.n):
            g.add_edges_from([(j, i)] * q.c[i][j])
    return g


def vf2_isomorphic(q1, q2):
    return MultiDiGraphMatcher(multigraph(q1), multigraph(q2)).is_isomorphic()


def circulant(n, steps):
    """One arrow v -> v + s (mod n) for every vertex v and every s in steps."""
    return Quiver([[int((i - j) % n in steps) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize(
    "n, steps1, steps2", [(12, {1, 2, 5}, {1, 3, 5}), (8, {1, 2}, {1, 3}), (10, {1, 2}, {1, 4})]
)
def test_circulants_with_equal_signatures(n, steps1, steps2):
    q1, q2 = circulant(n, steps1), circulant(n, steps2)
    assert signature_multiset(q1) == signature_multiset(q2)
    assert not vf2_isomorphic(q1, q2)
    assert are_isomorphic(q1, q2) is None


@st.composite
def graph_pairs(draw):
    """A graph with at most 12 vertices and either a relabelled copy or a
    relabelled copy with one arrow moved."""
    n = draw(st.integers(1, 12))
    c = [draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)) for _ in range(n)]
    tau = draw(st.permutations(range(n)))
    c2 = [[c[tau[i]][tau[j]] for j in range(n)] for i in range(n)]
    full = [(i, j) for i in range(n) for j in range(n) if c2[i][j]]
    if full and draw(st.booleans()):
        i, j = draw(st.sampled_from(full))
        c2[i][j] -= 1
        c2[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += 1
    return Quiver(c), Quiver(c2)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(graph_pairs())
def test_existence_agrees_with_vf2(pair):
    q1, q2 = pair
    witness = are_isomorphic(q1, q2)
    assert (witness is not None) == vf2_isomorphic(q1, q2)
    if witness is not None:
        assert apply_permutation(q1, witness) == q2
