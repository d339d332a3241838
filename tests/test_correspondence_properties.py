"""Property tests of the arrow-vector layout of correspondence elements
against the per-block reference in ``helpers`` (need hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from quiveralg import (  # noqa: E402
    CorrespondenceElement,
    element_from_wire,
    element_to_wire,
    inner_product,
    left_action,
    right_action,
)
from quiveralg.correspondence import _random_rows  # noqa: E402
from helpers import (  # noqa: E402
    quivers,
    reference_arrow_inner_product,
    reference_blocks,
    reference_inner_product,
    reference_left_action,
    reference_random_blocks,
    reference_right_action,
)

seeds = st.integers(0, 2**32 - 1)


def assert_same_blocks(got, want):
    for got_row, want_row in zip(got, want, strict=True):
        for g, w in zip(got_row, want_row, strict=True):
            assert g.shape == w.shape and np.array_equal(g, w)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(4, 3))
def test_layout_matches_arrows(q):
    arrows = list(q.arrows())
    sources, targets = q.arrow_ends()
    assert sources.tolist() == [a.source for a in arrows]
    assert targets.tolist() == [a.target for a in arrows]
    for i in q.vertices():
        for j in q.vertices():
            start = q.block_start(i, j)
            assert start == sum(1 for a in arrows if (a.target, a.source) < (i, j))
            assert arrows[start:start + q.c[i][j]] == q.block(i, j)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(4, 3), seeds)
def test_random_draws_block_by_block(q, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    xi = CorrespondenceElement.random(q, rng)
    assert_same_blocks(reference_blocks(xi), reference_random_blocks(q, ref_rng))
    assert rng.standard_normal() == ref_rng.standard_normal()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(4, 3), seeds, st.integers(1, 8))
def test_one_draw_of_k_rows_is_k_consecutive_draws(q, seed, k):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = _random_rows(q, rng, k)
    assert rows.shape == (k, q.total_arrows())
    for row in rows:
        assert row.tobytes() == CorrespondenceElement.random(q, ref_rng).vector.tobytes()
    assert rng.standard_normal() == ref_rng.standard_normal()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(4, 3), seeds)
def test_blocks_and_components(q, seed):
    rng = np.random.default_rng(seed)
    xi = CorrespondenceElement.random(q, rng)
    blocks = reference_blocks(xi)
    for a in q.arrows():
        assert xi.component(a) == blocks[a.target][a.source][a.index]
    for i in q.vertices():
        for j in q.vertices():
            assert np.array_equal(xi.block(i, j), blocks[i][j])
            vec = rng.standard_normal(q.c[i][j]) + 1j * rng.standard_normal(q.c[i][j])
            want = [row.copy() for row in blocks]
            want[i][j] = vec
            assert_same_blocks(reference_blocks(xi.with_block(i, j, vec)), want)
    assert_same_blocks(reference_blocks(xi), blocks)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(4, 3), seeds)
def test_actions_and_inner_product(q, seed):
    rng = np.random.default_rng(seed)
    xi, eta = CorrespondenceElement.random(q, rng), CorrespondenceElement.random(q, rng)
    d = rng.standard_normal(q.n) + 1j * rng.standard_normal(q.n)
    bx, by = reference_blocks(xi), reference_blocks(eta)
    assert_same_blocks(reference_blocks(left_action(d, xi)), reference_left_action(d, bx))
    assert_same_blocks(reference_blocks(right_action(xi, d)), reference_right_action(bx, d))
    got = inner_product(xi, eta)
    assert np.max(np.abs(got - reference_inner_product(bx, by)), initial=0.0) <= 1e-12
    # bit for bit: verify's golden covariance deviation depends on these bits
    assert got.tobytes() == reference_arrow_inner_product(xi, eta).tobytes()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(4, 3), seeds)
def test_wire_round_trip(q, seed):
    xi = CorrespondenceElement.random(q, np.random.default_rng(seed))
    blocks = reference_blocks(xi)
    records = element_to_wire(xi)
    assert [(r["to"] - 1, r["from"] - 1) for r in records] == [
        (i, j) for i in q.vertices() for j in q.vertices() if q.c[i][j]
    ]
    for r in records:
        got = np.array([complex(re, im) for re, im in r["vector"]])
        assert np.array_equal(got, blocks[r["to"] - 1][r["from"] - 1])
    assert np.array_equal(element_from_wire(q, records).vector, xi.vector)
