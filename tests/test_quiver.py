import itertools

import numpy as np
import pytest

from quiveralg import (
    Arrow,
    Path,
    Quiver,
    apply_permutation,
    are_isomorphic,
    arrow_path,
    compose,
    enumerate_paths,
    vertex_path,
)
from helpers import random_quiver


class TestQuiverConstruction:
    def test_basic(self):
        q = Quiver([[1, 2], [0, 1]])
        assert q.n == 2
        assert q.c == ((1, 2), (0, 1))
        assert q.count(0, 1) == 2
        assert q.total_arrows() == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Quiver([])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Quiver([[1, 2]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Quiver([[-1]])

    def test_rejects_infinite(self):
        with pytest.raises(ValueError, match="finite"):
            Quiver([[float("inf")]])

    def test_rejects_fractional(self):
        with pytest.raises(ValueError, match="integer"):
            Quiver([[1.5]])

    def test_accepts_integral_floats_and_numpy(self):
        q = Quiver(np.array([[2.0, 0.0], [1.0, 0.0]]))
        assert q.c == ((2, 0), (1, 0))

    def test_arrow_iteration_order(self):
        q = Quiver([[1, 2], [0, 1]])
        arrows = list(q.arrows())
        assert arrows == [
            Arrow(0, 0, 0),
            Arrow(1, 0, 0),
            Arrow(1, 0, 1),
            Arrow(1, 1, 0),
        ]
        assert list(q.arrows_from(1)) == [Arrow(1, 0, 0), Arrow(1, 0, 1), Arrow(1, 1, 0)]


class TestPath:
    def test_vertex_path(self):
        p = vertex_path(1)
        assert p.length == 0 and p.source == 1 and p.target == 1

    def test_composability_enforced(self):
        a = Arrow(0, 1, 0)
        b = Arrow(0, 1, 0)  # source 0 != target 1 of a
        with pytest.raises(ValueError, match="compose"):
            Path(0, (a, b))
        with pytest.raises(ValueError, match="base"):
            Path(1, (a,))

    def test_endpoints(self):
        a = Arrow(0, 1, 0)
        c = Arrow(1, 0, 0)
        p = Path(0, (a, c))
        assert p.source == 0 and p.target == 0 and p.length == 2


class TestEnumeratePaths:
    def test_single_loop(self):
        # one vertex, one loop: exactly one path per length
        q = Quiver([[1]])
        paths = enumerate_paths(q, 2)
        assert len(paths) == 3
        assert [p.length for p in paths] == [0, 1, 2]

    def test_no_composable_extensions(self):
        # one arrow 2 -> 1 and nothing else: v1, v2, and the arrow
        q = Quiver([[0, 1], [0, 0]])
        paths = enumerate_paths(q, 3)
        assert len(paths) == 3
        assert sorted(p.length for p in paths) == [0, 0, 1]

    def test_two_loops_count(self):
        # oracle: sum over k of the entry sum of C^k = 1 + 2 + 4
        q = Quiver([[2]])
        assert len(enumerate_paths(q, 2)) == 7

    @pytest.mark.parametrize("seed", range(8))
    def test_counts_match_matrix_powers(self, seed):
        # path count at length k equals the entry sum of the k-th matrix power
        rng = np.random.default_rng(seed)
        q = random_quiver(rng, max_n=4, max_entry=3)
        lengths = [p.length for p in enumerate_paths(q, 5)]
        for k in range(6):
            expected = int(np.linalg.matrix_power(q.matrix(), k).sum())
            assert lengths.count(k) == expected

    def test_canonical_order(self):
        rng = np.random.default_rng(3)
        q = random_quiver(rng, max_n=3, max_entry=2)
        paths = enumerate_paths(q, 3)
        assert paths == sorted(paths, key=Path.sort_key)
        assert paths == enumerate_paths(q, 3)  # deterministic
        assert len(set(paths)) == len(paths)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            enumerate_paths(Quiver([[1]]), -1)


class TestCompose:
    def test_vertex_units(self):
        q = Quiver([[0, 1], [0, 0]])
        a = arrow_path(Arrow(1, 0, 0))
        assert compose(vertex_path(0), a) == a  # unit at the target
        assert compose(a, vertex_path(1)) == a  # unit at the source
        assert compose(vertex_path(1), a) is None

    def test_composable_pair(self):
        # a: 2 -> 1 then b: 1 -> 2 compose both ways
        q = Quiver([[0, 1], [1, 0]])
        a = arrow_path(Arrow(1, 0, 0))
        b = arrow_path(Arrow(0, 1, 0))
        ab = compose(a, b)  # a after b: walks b first
        assert ab is not None and ab.length == 2
        assert ab.source == 0 and ab.target == 0
        assert ab.arrows == b.arrows + a.arrows

    def test_endpoint_mismatch(self):
        a = arrow_path(Arrow(1, 0, 0))
        assert compose(a, a) is None

    def test_associative_where_defined(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = random_quiver(rng, max_n=3, max_entry=2)
            paths = enumerate_paths(q, 2)
            picks = rng.choice(len(paths), size=3)
            p, r, s = (paths[int(k)] for k in picks)
            left = compose(compose(p, r), s) if compose(p, r) else None
            right = compose(p, compose(r, s)) if compose(r, s) else None
            assert left == right


class TestApplyPermutation:
    def test_identity(self):
        q = Quiver([[1, 2], [0, 1]])
        assert apply_permutation(q, (0, 1)) == q

    def test_swap(self):
        # index substitution c'[i][j] = c[tau(i)][tau(j)], checked by hand
        q = Quiver([[1, 2], [0, 1]])
        assert apply_permutation(q, (1, 0)).c == ((1, 0), (2, 1))

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = random_quiver(rng, max_n=4, max_entry=3)
            tau = tuple(int(v) for v in rng.permutation(q.n))
            inv = tuple(np.argsort(tau))
            assert apply_permutation(apply_permutation(q, tau), inv) == q

    def test_rejects_non_bijection(self):
        q = Quiver([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="permutation"):
            apply_permutation(q, (0, 0))


class TestAreIsomorphic:
    def test_self_gives_identity(self):
        q = Quiver([[1, 2], [0, 1]])
        assert are_isomorphic(q, q) == (0, 1)

    def test_swapped_pair(self):
        # oracle: exhaust S_2 by hand; only the swap maps one onto the other
        q1 = Quiver([[1, 2], [0, 1]])
        q2 = Quiver([[1, 0], [2, 1]])
        assert are_isomorphic(q1, q2) == (1, 0)

    def test_different_loop_counts(self):
        assert are_isomorphic(Quiver([[2]]), Quiver([[3]])) is None

    def test_different_sizes(self):
        assert are_isomorphic(Quiver([[1]]), Quiver([[1, 0], [0, 1]])) is None

    def test_lexicographically_least(self):
        # every permutation works on a constant matrix
        q = Quiver([[1, 1], [1, 1]])
        assert are_isomorphic(q, q) == (0, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_permuted_copies_always_found(self, seed):
        rng = np.random.default_rng(seed)
        q = random_quiver(rng, max_n=4, max_entry=2)
        tau = tuple(int(v) for v in rng.permutation(q.n))
        witness = are_isomorphic(q, apply_permutation(q, tau))
        assert witness is not None
        assert apply_permutation(q, witness) == apply_permutation(q, tau)

    def test_size_limit(self):
        q = Quiver(np.zeros((9, 9), dtype=int))
        with pytest.raises(ValueError, match="size limit exceeded"):
            are_isomorphic(q, q)

    def test_round_trip_with_itertools_oracle(self):
        # brute-force oracle written independently of the library search
        q1 = Quiver([[0, 2, 1], [1, 0, 0], [0, 1, 1]])
        tau = (2, 0, 1)
        q2 = apply_permutation(q1, tau)
        expected = None
        for cand in itertools.permutations(range(3)):
            ok = all(
                q2.c[i][j] == q1.c[cand[i]][cand[j]]
                for i in range(3)
                for j in range(3)
            )
            if ok:
                expected = cand
                break
        assert are_isomorphic(q1, q2) == expected
