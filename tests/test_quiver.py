import itertools
import time

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
from quiveralg.quiver import ISO_VERTEX_LIMIT, PATH_LIMIT, _path_tree
from helpers import (
    random_quiver,
    reference_enumerate_paths,
    reference_path_tree,
    signature_multiset,
)


def brute_force_witness(q1, q2):
    """The lexicographically least tau with q2[i][j] == q1[tau[i]][tau[j]],
    found by trying every permutation in order, or None."""
    if q1.n != q2.n:
        return None
    n = q1.n
    for tau in itertools.permutations(range(n)):
        if all(q2.c[i][j] == q1.c[tau[i]][tau[j]] for i in range(n) for j in range(n)):
            return tau
    return None


def _permuted(rng, c):
    tau = rng.permutation(len(c))
    return [[c[tau[i]][tau[j]] for j in range(len(c))] for i in range(len(c))]


def _one_arrow_moved(rng, c):
    n = len(c)
    c = [list(row) for row in c]
    full = [(i, j) for i in range(n) for j in range(n) if c[i][j]]
    i, j = full[int(rng.integers(len(full)))]
    c[i][j] -= 1
    c[int(rng.integers(n))][int(rng.integers(n))] += 1
    return c


def _degree_preserving_switch(rng, c):
    """Swap the heads of two arrows of a loopless 0/1 matrix: i <- j and
    k <- l become i <- l and k <- j.  Every vertex keeps its in- and
    out-degree, so both graphs have the same vertex signatures."""
    n = len(c)
    c = [list(row) for row in c]
    for _ in range(100):
        i, j, k, l = (int(v) for v in rng.integers(n, size=4))
        if (
            c[i][j] and c[k][l] and not c[i][l] and not c[k][j]
            and len({i, k}) == 2 and len({j, l}) == 2 and i != l and k != j
        ):
            c[i][j] = c[k][l] = 0
            c[i][l] = c[k][j] = 1
            break
    return c


def oracle_pairs(seed, count):
    """``count`` pairs of graphs with at most 6 vertices, in four kinds:
    permuted copies, one arrow moved, constant matrices and pairs with equal
    vertex signatures."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(count):
        kind = k % 4
        n = int(rng.integers(2, 7))
        if kind == 2:
            m = int(rng.integers(0, 3))
            c = [[m] * n for _ in range(n)]
            other = _one_arrow_moved(rng, c) if m and rng.random() < 0.5 else c
        elif kind == 3:
            c = (rng.random((n, n)) < 0.4).astype(int)
            np.fill_diagonal(c, 0)
            c[0][1] = 1
            c = c.tolist()
            other = _permuted(rng, _degree_preserving_switch(rng, c))
        else:
            c = rng.integers(0, 3, size=(n, n)).tolist()
            if not any(map(any, c)):
                c[0][0] = 1
            other = _permuted(rng, c) if kind == 0 else _one_arrow_moved(rng, _permuted(rng, c))
        pairs.append((kind, Quiver(c), Quiver(other)))
    return pairs


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


#: the random set of the creation-operator oracle, a sink (vertex 2 has no
#: out-arrows), an arrowless graph, and a cycle through single out-arrows
#: with a loop
TREE_CASES = {
    **{f"random{seed}": random_quiver(np.random.default_rng(800 + seed), max_n=3, max_entry=2)
       for seed in range(10)},
    "sink": Quiver([[1, 1, 0], [0, 0, 0], [1, 2, 0]]),
    "arrowless": Quiver([[0, 0], [0, 0]]),
    "cycle_loop": Quiver([[1, 0, 1], [1, 0, 0], [0, 1, 0]]),
}


class TestPathTree:
    """``_path_tree`` against the path-by-path reference enumeration."""

    @pytest.mark.parametrize("name", sorted(TREE_CASES))
    def test_equal_to_reference(self, name):
        q = TREE_CASES[name]
        for max_len in range(5):
            got, want = _path_tree(q, max_len), reference_path_tree(q, max_len)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
            assert enumerate_paths(q, max_len) == reference_enumerate_paths(q, max_len)

    def test_limit_is_inclusive(self):
        # two loops at one vertex and an isolated vertex: 2^(L+1) paths
        q = Quiver([[2, 0], [0, 0]])
        assert len(_path_tree(q, 19)[2]) == PATH_LIMIT
        with pytest.raises(ValueError, match="size limit"):
            _path_tree(q, 20)
        with pytest.raises(ValueError, match="size limit"):
            enumerate_paths(q, 20)

    def test_huge_lengths_decided_at_once(self):
        t0 = time.perf_counter()
        # a cycle makes every level nonempty: refused without counting them
        with pytest.raises(ValueError, match="size limit"):
            _path_tree(Quiver([[0, 1], [1, 0]]), 10**12)
        # no cycle: the levels run out after one arrow
        assert _path_tree(Quiver([[0, 1], [0, 0]]), 10**12)[2].tolist() == [0, 0, 1]
        assert time.perf_counter() - t0 < 0.1


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

    @pytest.mark.parametrize("n", [9, 30])
    def test_permuted_copies_past_eight_vertices(self, n):
        rng = np.random.default_rng(n)
        q = Quiver(rng.integers(0, 3, size=(n, n)).tolist())
        tau = tuple(int(v) for v in rng.permutation(n))
        q2 = apply_permutation(q, tau)
        witness = are_isomorphic(q, q2)
        assert witness is not None
        assert apply_permutation(q, witness) == q2

    def test_size_limit(self):
        n = ISO_VERTEX_LIMIT + 1
        q = Quiver(np.zeros((n, n), dtype=int))
        with pytest.raises(ValueError, match="size limit exceeded"):
            are_isomorphic(q, q)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_brute_force(self, seed):
        # exact witness (the lexicographically least) or None, on 4 x 60 pairs
        pairs = oracle_pairs(seed, 60)
        found = {kind: [0, 0] for kind in range(4)}
        for kind, q1, q2 in pairs:
            expected = brute_force_witness(q1, q2)
            assert are_isomorphic(q1, q2) == expected, (q1.c, q2.c)
            found[kind][expected is None] += 1
        assert found[0] == [15, 0]  # permuted copies are always isomorphic
        assert found[1][1] > 0 and found[2][0] > 0  # moved arrows miss, constants hit
        assert all(signature_multiset(q1) == signature_multiset(q2) for k, q1, q2 in pairs if k == 3)
        assert found[3][0] > 0 and found[3][1] > 0  # equal signatures: hits and misses

    def test_round_trip_with_itertools_oracle(self):
        # brute-force oracle written independently of the library search
        q1 = Quiver([[0, 2, 1], [1, 0, 0], [0, 1, 1]])
        tau = (2, 0, 1)
        q2 = apply_permutation(q1, tau)
        assert are_isomorphic(q1, q2) == brute_force_witness(q1, q2)
