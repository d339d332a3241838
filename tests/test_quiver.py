import ast
import copy
import itertools
import pathlib
import pickle
import re
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
from quiveralg import FockSpace, quiver
from quiveralg.quiver import ISO_VERTEX_LIMIT, PATH_LIMIT, PATH_TOKEN_LIMIT, _path_levels
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
        assert q.c.tolist() == [[1, 2], [0, 1]]
        assert q.count(0, 1) == 2
        assert q.total_arrows() == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Quiver([])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Quiver([[1, 2]])
        with pytest.raises(ValueError, match="^multiplicity matrix must be square$"):
            Quiver([[1, 2], [3]])  # ragged

    @pytest.mark.parametrize("target, source", [(2, 0), (0, 2), (-1, 0)])
    def test_count_refuses_vertex_out_of_range(self, target, source):
        bad = source if target == 0 else target
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range for a 2-vertex quiver$"):
            Quiver([[1, 2], [0, 1]]).count(target, source)

    @pytest.mark.parametrize("target, source", [(2, 0), (0, 2), (-1, 0)])
    def test_block_start_refuses_vertex_out_of_range(self, target, source):
        bad = source if target == 0 else target
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range for a 2-vertex quiver$"):
            Quiver([[1, 2], [0, 1]]).block_start(target, source)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Quiver([[-1]])

    def test_rejects_infinite(self):
        with pytest.raises(ValueError, match="finite"):
            Quiver([[float("inf")]])

    def test_rejects_fractional(self):
        with pytest.raises(ValueError, match="integer"):
            Quiver([[1.5]])

    @pytest.mark.parametrize(
        "c, bad",
        [
            ([["3"]], "3"),
            ([[b"4"]], b"4"),
            (np.array([["1", "0"], ["2", "1"]]), "1"),
            ([[None]], None),
            ([[3 + 0j]], 3 + 0j),
            ([[float("nan")]], float("nan")),
            ([[np.float64("nan")]], np.float64("nan")),
            ([[True, 0], [0, 0]], True),  # numpy alone would read it as 1
            ([[1, "3"], [0, 0]], "3"),  # numpy makes every entry a string; "3" is the one named
        ],
    )
    def test_rejects_what_is_not_a_number_naming_it(self, c, bad):
        # only ints, numpy integers and integral floats are counts
        named = "a bool" if isinstance(bad, bool) else re.escape(repr(bad))
        with pytest.raises(ValueError, match=f"^multiplicities must be integers, got {named}$"):
            Quiver(c)

    def test_rejects_a_numpy_bool_in_a_list(self):
        with pytest.raises(ValueError, match="got a bool"):
            Quiver([[np.True_]])

    def test_accepts_integral_floats_and_numpy(self):
        q = Quiver(np.array([[2.0, 0.0], [1.0, 0.0]]))
        assert q.c.tolist() == [[2, 0], [1, 0]]

    def test_rejects_a_bool_array(self):
        # as a Python True is refused, so is an np.bool_ entry
        with pytest.raises(ValueError, match="got a bool"):
            Quiver(np.array([[True, False], [False, True]]))

    def test_int_array_within_budget(self):
        # an int64 array is checked as one array and copied once
        c = np.zeros((1024, 1024), dtype=np.int64)
        c[0, 1] = 2
        t0 = time.perf_counter()
        q = Quiver(c)
        assert time.perf_counter() - t0 < 0.3
        assert q.total_arrows() == 2 and type(q.count(0, 1)) is int
        assert q.c.dtype == np.int64 and not q.c.flags.writeable
        c[0, 1] = 3  # the caller's array is not shared
        assert q.count(0, 1) == 2

    def test_exact_ints_take_no_type_checks(self, monkeypatch):
        """A matrix of counts, as a list, an int array or an integral float
        array, is checked as one array without one per-entry check; only a
        refused matrix is read entry by entry, to name the first bad one."""
        calls = []
        check = quiver._check_count
        monkeypatch.setattr(quiver, "_check_count", lambda value: (calls.append(value), check(value)))
        c = [[(i + j) % 3 for j in range(64)] for i in range(64)]
        for given in (c, np.array(c), np.array(c, dtype=float)):
            assert Quiver(given).c.tolist() == c and calls == []
        for bad, match in ((True, "bool"), (-1, "nonnegative")):
            with pytest.raises(ValueError, match=match):
                Quiver([[0, bad], [0, 0]])
        assert calls == [0, True, 0, -1]

    @pytest.mark.parametrize(
        "c", [[[2**63]], [[2.0**63]], [[2**70, 0], [0, 0]], np.array([[2**63]], dtype=np.uint64), [[2**62, 2**62], [0, 0]]]
    )
    def test_refuses_more_arrows_than_int64_holds(self, c):
        # checked before anything wraps: one count, or the total, past 2^63 - 1
        with pytest.raises(ValueError, match="^size limit exceeded"):
            Quiver(c)

    def test_largest_counts_accepted_and_per_arrow_views_refused(self):
        q = Quiver([[2**62, 2**62 - 1], [0, 0]])
        assert q.total_arrows() == 2**63 - 1 and q.block_start(0, 1) == 2**62
        assert FockSpace(q, 0).last_arrow.tolist() == []  # no level of arrows, no arrow view
        with pytest.raises(ValueError, match="size limit exceeded: refusing a vector over"):
            q.arrow_ends()

    def test_equal_and_hashed_by_value(self):
        q = Quiver([[1, 2], [0, 1]])
        same = (Quiver(q.c), Quiver(np.array([[1.0, 2.0], [0.0, 1.0]])), Quiver(((1, 2), (0, 1))))
        assert all(r == q and hash(r) == hash(q) for r in same)
        assert q != Quiver([[1, 2], [1, 1]]) and q != Quiver([[1]]) and q != q.c.tolist()
        for r in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q), copy.copy(q)):
            assert r == q and not r.c.flags.writeable

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

    def test_block_start_of_every_block_within_budget(self):
        """All n^2 block starts and arrow counts of the complete 200-vertex
        graph (40,000 arrows) are read from one table, not summed per call."""
        n = 200
        q = Quiver([[1] * n] * n)
        t0 = time.perf_counter()
        starts = [q.block_start(i, j) for i in range(n) for j in range(n)]
        totals = {q.total_arrows() for _ in range(n * n)}
        assert time.perf_counter() - t0 < 0.5
        assert starts == list(range(n * n)) and totals == {n * n}


class TestArrowEnds:
    def test_built_once_per_quiver_and_read_only(self):
        q, r = Quiver([[1, 2], [0, 1]]), Quiver([[0, 1], [1, 0]])
        first = q.arrow_ends(), r.arrow_ends()
        for _ in range(5):
            assert q.arrow_ends() is first[0] and r.arrow_ends() is first[1]
        assert first[0][0].tolist() == [0, 1, 1, 1] and first[1][1].tolist() == [0, 1]
        assert not any(a.flags.writeable for a in q.arrow_ends() + r.arrow_ends())


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
    """``FockSpace``'s arrays and the level walk against the path-by-path
    reference enumeration."""

    @pytest.mark.parametrize("name", sorted(TREE_CASES))
    def test_equal_to_reference(self, name):
        q = TREE_CASES[name]
        for max_len in range(5):
            space = FockSpace(q, max_len)
            got = space.parent, space.last_arrow, space.lengths, space.targets
            want = reference_path_tree(q, max_len)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
            assert enumerate_paths(q, max_len) == reference_enumerate_paths(q, max_len)

    @pytest.mark.parametrize("name", sorted(TREE_CASES))
    def test_levels_are_the_reference_by_length(self, name):
        """Level k of ``_path_levels`` is the reference tree's paths of
        length k: the parents counted from the start of level k - 1, the
        last arrows as places in ``out_arrow``, and the end vertices."""
        q = TREE_CASES[name]
        for max_len in range(5):
            parent, last_arrow, lengths, targets = reference_path_tree(q, max_len)
            levels = list(_path_levels(q, max_len))
            assert len(levels) == lengths.max()
            # the place in out_arrow of every arrow position
            place = np.argsort(q._by_source[0]) if levels else None
            starts = np.searchsorted(lengths, np.arange(len(levels) + 2))
            for k, level in enumerate(levels, 1):
                lo, hi = starts[k], starts[k + 1]
                want = (
                    parent[lo - q.n : hi - q.n] - starts[k - 1],
                    place[last_arrow[lo - q.n : hi - q.n]],
                    targets[lo:hi],
                )
                for g, w in zip(level, want):
                    assert g.dtype == np.intp and g.dtype == w.dtype
                    assert g.tobytes() == w.tobytes()

    def test_levels_refuse_before_the_walk(self):
        with pytest.raises(ValueError, match="max_len must be nonnegative"):
            _path_levels(Quiver([[1]]), -1)
        with pytest.raises(ValueError, match="size limit"):
            _path_levels(Quiver([[0, 1], [1, 0]]), 10**12)

    def test_limit_is_inclusive(self, monkeypatch):
        # two loops at one vertex and an isolated vertex: 2^(L+1) paths
        q = Quiver([[2, 0], [0, 0]])
        # at L = 19 they hold 18 * 2^20 + 2 arrows, past the token budget;
        # the budget is raised below so that the path limit is the one tested
        with pytest.raises(ValueError, match="arrow tokens"):
            FockSpace(q, 19)
        monkeypatch.setattr(quiver, "PATH_TOKEN_LIMIT", 2**25)
        assert FockSpace(q, 19).dim == PATH_LIMIT
        with pytest.raises(ValueError, match="size limit"):
            FockSpace(q, 20)
        with pytest.raises(ValueError, match="size limit"):
            enumerate_paths(q, 20)

    def test_huge_lengths_decided_at_once(self):
        t0 = time.perf_counter()
        # a cycle makes every level nonempty: refused without counting them
        with pytest.raises(ValueError, match="size limit"):
            FockSpace(Quiver([[0, 1], [1, 0]]), 10**12)
        # no cycle: the levels run out after one arrow
        assert FockSpace(Quiver([[0, 1], [0, 0]]), 10**12).lengths.tolist() == [0, 0, 1]
        assert time.perf_counter() - t0 < 0.1

    def test_token_budget_refuses_before_any_path(self, monkeypatch):
        # 6,001 paths pass the path limit, but they hold 18,003,000 arrows
        assert PATH_TOKEN_LIMIT == 2**24
        monkeypatch.setattr(quiver, "Path", lambda *a: pytest.fail("a Path was built"))
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="arrow tokens"):
            enumerate_paths(Quiver([[1]]), 6000)
        assert time.perf_counter() - t0 < 0.1

    def test_token_budget_is_inclusive(self, monkeypatch):
        # one loop up to length L holds L(L + 1)/2 arrows: 10 at L = 4
        monkeypatch.setattr(quiver, "PATH_TOKEN_LIMIT", 10)
        assert len(enumerate_paths(Quiver([[1]]), 4)) == 5
        with pytest.raises(ValueError, match="arrow tokens"):
            enumerate_paths(Quiver([[1]]), 5)


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
        assert apply_permutation(q, (1, 0)).c.tolist() == [[1, 0], [2, 1]]

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

    @pytest.mark.parametrize(
        "tau",
        [(1.9, 0.2), (1.0, 0.0), (1, 0.0), ("1", "0"), (True, False), (np.True_, np.False_)],
    )
    def test_rejects_entries_that_are_not_integers(self, tau):
        """An entry is not rounded, parsed or read as a bool."""
        with pytest.raises(ValueError, match=r"not a permutation of 0\.\.1"):
            apply_permutation(Quiver([[1, 2], [0, 1]]), tau)


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


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def matrix_walks(source: str) -> list[int]:
    """Lines in ``source`` that read a quiver's multiplicity matrix: every
    ``.c`` attribute and every ``.matrix()`` call, whatever is done with
    them, and every ``X.count(i, j)`` under two nested loops or generators,
    which walks the matrix one entry at a time."""
    found = []

    def method_call(node, name, nargs):  # X.name(...) with nargs positional arguments
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
            and len(node.args) == nargs
        )

    def visit(node, depth):
        if (isinstance(node, ast.Attribute) and node.attr == "c") or method_call(node, "matrix", 0) or (
            depth >= 2 and method_call(node, "count", 2)
        ):
            found.append(node.lineno)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            visit(node.iter, depth)
            for child in [node.target, *node.body, *node.orelse]:
                visit(child, depth + 1)
        elif isinstance(node, ast.While):
            for child in [node.test, *node.body, *node.orelse]:
                visit(child, depth + 1)
        elif isinstance(node, _COMPREHENSIONS):
            for gen in node.generators:  # each generator's iterable runs under the ones before it
                visit(gen.iter, depth)
                depth += 1
                for child in [gen.target, *gen.ifs]:
                    visit(child, depth)
            for child in [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]:
                visit(child, depth)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, depth)

    visit(ast.parse(source), 0)
    return sorted(set(found))


@pytest.mark.parametrize(
    "source, walks",
    [
        ("for row in q.c:\n    pass", [1]),
        ("for t, row in enumerate(self.quiver.c):\n    pass", [1]),
        ("n = sum(d for d in q.c[0])", [1]),
        ("n = sum(d * d for row in q.c for d in row)", [1]),
        ("b = [(i, j) for i in r for j in r if q.c[i][j]]", [1]),
        ("for i in r:\n    b = [j for j in r if q.c[i][j]]", [2]),
        ("for i in r:\n    for j in r:\n        x = q.c[i][j]", [3]),
        ("while i < n:\n    for j in r:\n        x = q.c[i][j]", [3]),
        # a one-entry read and a name bound to the matrix are reads too
        ("x = q.c[v][v]", [1]),
        ("for v in r:\n    if q.c[v][v]:\n        pass", [2]),
        ("ok = all(f(v) for v in r if q.c[v][v])", [1]),
        ("for i, j in pairs:\n    for k in range(q.c[i][j]):\n        pass", [2]),
        ("c = q.c\nfor row in c:\n    pass", [1]),
        ("n, c = q.n, q.c\nb = [(i, j) for i in r for j in r if c[i][j]]", [1]),
        ("c = q.c\nx = c[v][v]", [1]),
        ("m = q.matrix()", [1]),
        ("for row in q.matrix().tolist():\n    pass", [1]),
        ("for i in r:\n    for j in r:\n        x = q.count(i, j)", [3]),
        ("b = [(i, j) for i in r for j in r if q.count(i, j)]", [1]),
        ("for i in r:\n    x = q.count(i, i)", []),
        ("for i in r:\n    for j in r:\n        k = names.count(j)", []),
        ("n = q.c.sum()", [1]),
        ("b = np.nonzero(q.c)", [1]),
        ("col = q.c[:, j]", [1]),
        ("rows = q.c.tolist()", [1]),
        ("x = q.c[i, j]", [1]),
        ("c = q.c\nm = c[i, :]", [1]),
        ("for i in r:\n    for j in r:\n        x = q.c[i, j]", [3]),
    ],
)
def test_matrix_walk_finder(source, walks):
    assert matrix_walks(source) == walks


def test_only_quiver_walks_the_multiplicity_matrix():
    """No other module reads the n x n matrix, in any of the forms
    ``matrix_walks`` finds: they read one block size through ``count`` and
    the arrow layout a ``Quiver`` caches (its nonempty blocks, block starts,
    arrow ends and arrows by source)."""
    found = {
        path.name: walks
        for path in sorted(pathlib.Path(quiver.__file__).parent.glob("*.py"))
        if path.name != "quiver.py" and (walks := matrix_walks(path.read_text(encoding="utf-8")))
    }
    assert found == {}
