import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from quiveralg import (
    Arrow,
    CorrespondenceElement,
    FockSpace,
    PathPolynomial,
    Quiver,
    arrow_path,
    check_isometric_covariance,
    compose,
    corner_shift_report,
    creation_operator,
    diag_operator,
    enumerate_paths,
    evaluate_polynomial,
    inner_product,
    left_action,
    operator_norm,
    right_action,
)
from quiveralg.fock import DENSE_SVD_LIMIT
from helpers import (
    basis_index,
    random_element,
    random_polynomial,
    random_quiver,
    reference_corner_report,
    reference_covariance_deviation,
    reference_creation_matrix,
    reference_enumerate_paths,
    reference_shift_norm,
)


def assert_same_csr(got, want):
    """Equal shape, and data, indices and indptr equal in dtype and bytes."""
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@pytest.fixture
def loop1():
    return Quiver([[1]])


@pytest.fixture
def loop2():
    return Quiver([[2]])


class TestFockSpace:
    def test_basis_is_path_enumeration(self):
        rng = np.random.default_rng(0)
        q = random_quiver(rng, max_n=3, max_entry=2)
        space = FockSpace(q, 3)
        basis = enumerate_paths(space.quiver, space.depth)
        assert basis == reference_enumerate_paths(q, 3)
        assert space.dim == len(basis)
        assert space.lengths.tolist() == [p.length for p in basis]
        assert space.targets.tolist() == [p.target for p in basis]

    @pytest.mark.parametrize("seed", range(6))
    def test_dimension_matches_matrix_power_sum(self, seed):
        rng = np.random.default_rng(seed)
        q = random_quiver(rng, max_n=3, max_entry=3)
        space = FockSpace(q, 4)
        expected = sum(
            int(np.linalg.matrix_power(q.matrix(), k).sum()) for k in range(5)
        )
        assert space.dim == expected

    def test_repr(self):
        assert repr(FockSpace(Quiver([[1, 1], [0, 1]]), 3)) == "FockSpace(n=2, depth=3, dim=14)"

    def test_rejects_negative_depth(self, loop1):
        with pytest.raises(ValueError):
            FockSpace(loop1, -1)

    def test_refuses_more_paths_than_the_limit(self, loop2):
        # 2^21 - 1 paths: refused before any array is built
        with pytest.raises(ValueError, match="size limit"):
            FockSpace(loop2, 20)

    def test_refuses_more_arrow_tokens_than_the_budget(self, loop1):
        # one loop up to depth L holds L(L + 1)/2 arrows: 16,776,528 <= 2^24
        # at L = 5792 and 16,782,321 at L = 5793; the count stops there, so
        # a depth of 10^5 is refused without building its 10^5 levels
        assert FockSpace(loop1, 5792).dim == 5793
        t0 = time.perf_counter()
        for depth in (5793, 10**5):
            with pytest.raises(ValueError, match="size limit exceeded: .* arrow tokens"):
                FockSpace(loop1, depth)
        assert time.perf_counter() - t0 < 0.1


class TestCreationOperator:
    def test_truncated_shift_chain(self, loop1):
        # basis [v, a, aa]: v -> a -> aa -> 0
        space = FockSpace(loop1, 2)
        t = creation_operator(space, CorrespondenceElement.basis(loop1, Arrow(0, 0, 0)))
        expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.array_equal(t.toarray(), expected)

    def test_zero_element(self, loop2):
        space = FockSpace(loop2, 3)
        t = creation_operator(space, CorrespondenceElement.zeros(loop2))
        assert t.nnz == 0

    def test_two_loops_have_orthogonal_ranges(self, loop2):
        space = FockSpace(loop2, 3)
        t1 = creation_operator(space, CorrespondenceElement.basis(loop2, Arrow(0, 0, 0)))
        t2 = creation_operator(space, CorrespondenceElement.basis(loop2, Arrow(0, 0, 1)))
        cross = (t1.conj().T @ t2).toarray()
        assert np.array_equal(cross, np.zeros_like(cross))
        gram = (t1.conj().T @ t1).toarray()
        inner = np.flatnonzero(space.lengths <= space.depth - 1)
        assert np.array_equal(gram[np.ix_(inner, inner)], np.eye(len(inner)))

    def test_shape_mismatch(self, loop1):
        space = FockSpace(loop1, 2)
        with pytest.raises(ValueError, match="different quiver"):
            creation_operator(space, CorrespondenceElement.zeros(Quiver([[2]])))

    @pytest.mark.parametrize("seed", range(10))
    def test_csr_arrays_equal_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(800 + seed)
        q = random_quiver(rng, max_n=3, max_entry=2)
        elements = [CorrespondenceElement.basis(q, a) for a in q.arrows()]
        elements += [random_element(q, rng) for _ in range(2)]
        holes = random_element(q, rng)
        holes.vector[::2] = 0.0
        elements += [holes, CorrespondenceElement.zeros(q)]
        for depth in range(4):
            space = FockSpace(q, depth)
            for xi in elements:
                assert_same_csr(creation_operator(space, xi), reference_creation_matrix(space, xi))


class TestDiagOperator:
    def test_identity(self, loop2):
        space = FockSpace(loop2, 2)
        d = diag_operator(space, np.ones(1))
        assert d.format == "csr"
        assert np.array_equal(d.toarray(), np.eye(space.dim))

    def test_unit_gives_projection_onto_corner(self):
        q = Quiver([[0, 1], [0, 0]])
        space = FockSpace(q, 2)  # basis: v1, v2, the arrow (target 0)
        p0 = diag_operator(space, np.eye(2)[0]).toarray()
        diag = np.diagonal(p0)
        targets = [p.target for p in enumerate_paths(space.quiver, space.depth)]
        assert np.array_equal(diag, np.array([1.0 if t == 0 else 0.0 for t in targets]))
        assert np.array_equal(p0 @ p0, p0)

    def test_target_row_convention(self):
        # the arrow 2 -> 1 picks up the first diagonal entry
        q = Quiver([[0, 1], [0, 0]])
        space = FockSpace(q, 2)
        d = diag_operator(space, np.array([2.0, 3.0]))
        a = basis_index(enumerate_paths(space.quiver, space.depth))[arrow_path(Arrow(1, 0, 0))]
        assert d[a, a] == 2.0


class TestEvaluatePolynomial:
    def test_vertex_gives_projection(self, loop2):
        space = FockSpace(loop2, 2)
        via_poly = evaluate_polynomial(space, PathPolynomial.vertex(loop2, 0))
        via_diag = diag_operator(space, np.eye(1)[0])
        assert via_poly.format == "csr"
        assert np.array_equal(via_poly.toarray(), via_diag.toarray())
        with pytest.raises(ValueError, match="^polynomial lives over a different quiver$"):
            evaluate_polynomial(space, PathPolynomial.vertex(Quiver([[1]]), 0))

    def test_arrow_gives_creation(self, loop2):
        space = FockSpace(loop2, 2)
        a = Arrow(0, 0, 1)
        via_poly = evaluate_polynomial(space, PathPolynomial.arrow(loop2, a))
        direct = creation_operator(space, CorrespondenceElement.basis(loop2, a))
        assert np.array_equal(via_poly.toarray(), direct.toarray())

    def test_composable_word_is_matrix_product(self):
        q = Quiver([[1, 1], [0, 1]])
        space = FockSpace(q, 3)
        loop = Arrow(0, 0, 0)
        bridge = Arrow(1, 0, 0)
        word = compose(arrow_path(loop), arrow_path(bridge))
        via_poly = evaluate_polynomial(space, PathPolynomial.monomial(q, word))
        t_loop = evaluate_polynomial(space, PathPolynomial.arrow(q, loop))
        t_bridge = evaluate_polynomial(space, PathPolynomial.arrow(q, bridge))
        product = (t_loop @ t_bridge).toarray()
        assert np.array_equal(via_poly.toarray(), product)

    @pytest.mark.parametrize("seed", range(4))
    def test_homomorphism_on_untruncated_block(self, seed):
        # eval(p * q) equals eval(p) @ eval(q) wherever the depth never bites
        rng = np.random.default_rng(400 + seed)
        q = random_quiver(rng, max_n=3, max_entry=2)
        space = FockSpace(q, 5)
        p = random_polynomial(q, rng, max_degree=2, terms=4)
        r = random_polynomial(q, rng, max_degree=2, terms=4)
        lhs = evaluate_polynomial(space, p * r)
        rhs = evaluate_polynomial(space, p) @ evaluate_polynomial(space, r)
        cut = np.flatnonzero(space.lengths <= 5 - 4)  # depth minus the two degrees
        block = (lhs - rhs).tocsr()[cut][:, cut]
        assert operator_norm(block) <= 1e-12


    def test_vertex_projection_builds_no_identity(self):
        # 3,000 vertices with one loop each at depth 1 (dim 6,000): an n x n
        # identity to pick the vertex's indicator from would take 72 MB
        q = Quiver(np.diag(np.ones(3000, dtype=np.int64)))
        space = FockSpace(q, 1)
        p = PathPolynomial.vertex(q, 0)
        evaluate_polynomial(space, p)  # the first call's imports are not measured
        tracemalloc.start()
        try:
            m = evaluate_polynomial(space, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert np.array_equal(m.diagonal(), (space.targets == 0).astype(complex)) and m.nnz == 2


class TestOperatorNorm:
    def test_identity(self, loop2):
        space = FockSpace(loop2, 3)
        eye = diag_operator(space, np.ones(1))
        assert operator_norm(eye) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self, loop2):
        space = FockSpace(loop2, 3)
        z = creation_operator(space, CorrespondenceElement.zeros(loop2))
        assert operator_norm(z) == 0.0

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrix_has_norm_zero(self, shape):
        assert operator_norm(np.zeros(shape)) == 0.0
        assert operator_norm(sp.csr_matrix(shape)) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_unit_norm_element_gives_unit_operator(self, seed):
        # the truncated shift attains the module norm on the vertex level
        rng = np.random.default_rng(500 + seed)
        q = random_quiver(rng, max_n=3, max_entry=3)
        while q.total_arrows() == 0:
            q = random_quiver(rng, max_n=3, max_entry=3)
        xi = random_element(q, rng)
        from quiveralg import element_norm

        nrm = element_norm(xi)
        space = FockSpace(q, 2)
        t = creation_operator(space, (1.0 / nrm) * xi)
        assert operator_norm(t) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_weighted_shift_route_matches_svd(self, seed):
        rng = np.random.default_rng(900 + seed)
        q = random_quiver(rng, max_n=3, max_entry=2)
        space = FockSpace(q, 3)
        xi, eta = random_element(q, rng), random_element(q, rng)
        t_xi = creation_operator(space, xi)
        t_eta = creation_operator(space, eta)
        inner = np.flatnonzero(space.lengths <= space.depth - 1)
        gram = (t_xi.conj().T @ t_eta).tocsr()[inner][:, inner]
        block = (
            t_xi.conj().T @ t_eta - diag_operator(space, inner_product(xi, eta))
        ).tocsr()[inner][:, inner]
        for mat in (t_xi, t_eta, gram, block):
            assert np.diff(mat.indptr).max() <= 1
            svd = float(np.linalg.svd(mat.toarray(), compute_uv=False)[0])
            assert abs(operator_norm(mat) - svd) <= 1e-13
            # the sparse and the dense input take the one column norm
            assert operator_norm(mat) == operator_norm(mat.toarray()) == reference_shift_norm(mat)
        assert check_isometric_covariance(space, xi, eta) == operator_norm(block)

    def test_two_entries_in_a_row_take_the_svd(self):
        row = np.array([[1.0, 1.0]])
        assert operator_norm(row) == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert operator_norm(sp.csr_matrix(row)) == pytest.approx(np.sqrt(2.0), abs=1e-15)
        rng = np.random.default_rng(7)
        m = rng.standard_normal((60, 40)) + 1j * rng.standard_normal((60, 40))
        dense = float(np.linalg.svd(m, compute_uv=False)[0])
        assert operator_norm(m) == dense
        assert operator_norm(sp.csr_matrix(m)) == dense

    def test_nested_list_is_read_as_an_array(self):
        assert operator_norm([[3.0, 0.0], [0.0, -4.0]]) == 4.0
        assert operator_norm([[1.0, 1.0]]) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
    def test_input_that_is_not_two_dimensional_is_refused(self, shape):
        with pytest.raises(ValueError, match=r"^operator_norm needs a 2-D matrix, got shape \("):
            operator_norm(np.ones(shape))

    @pytest.mark.parametrize(
        "entries",
        [[[np.nan, 0.0], [0.0, 1.0]], [[np.nan, 1.0], [1.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]],
        ids=["nan_on_the_shift_route", "nan_on_the_svd_route", "inf"],
    )
    def test_non_finite_entries_are_refused_before_either_route(self, entries, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("SVD taken"))
        for m in (np.array(entries), sp.csr_matrix(entries)):
            with pytest.raises(ValueError, match="^operator_norm needs finite entries"):
                operator_norm(m)

    def test_large_matrix_off_the_shift_route_is_refused(self, monkeypatch):
        # norm 1 + O(1e-9); an iterative route stopped at |delta sigma| <=
        # 1e-9 returned 0.99998373 here, so no such route is taken
        n = 4000
        m = sp.diags([1 - 1e-4 * np.arange(n) / n, np.full(n - 1, 1e-9)], [0, 1])
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("SVD taken"))
        with pytest.raises(ValueError, match="size limit exceeded"):
            operator_norm(m)

    def test_limit_bounds_both_sides(self):
        wide = sp.csr_matrix(np.ones((2, DENSE_SVD_LIMIT)))
        with pytest.raises(ValueError, match="size limit exceeded"):
            operator_norm(wide)
        below = np.ones((2, DENSE_SVD_LIMIT - 1))
        assert operator_norm(below) == pytest.approx(np.sqrt(2 * (DENSE_SVD_LIMIT - 1)))


class TestIsometricCovariance:
    def test_isometry_on_basis_arrow(self, loop2):
        space = FockSpace(loop2, 3)
        e = CorrespondenceElement.basis(loop2, Arrow(0, 0, 0))
        assert check_isometric_covariance(space, e, e) == 0.0

    def test_orthogonal_arrows_vanish_on_both_sides(self, loop2):
        space = FockSpace(loop2, 3)
        e1 = CorrespondenceElement.basis(loop2, Arrow(0, 0, 0))
        e2 = CorrespondenceElement.basis(loop2, Arrow(0, 0, 1))
        assert check_isometric_covariance(space, e1, e2) == 0.0

    def test_random_pair_on_reference_quiver(self):
        q = Quiver([[1, 2], [0, 1]])
        space = FockSpace(q, 3)
        rng = np.random.default_rng(9)
        dev = check_isometric_covariance(
            space, random_element(q, rng), random_element(q, rng)
        )
        assert dev <= 1e-12

    def test_elements_over_a_different_quiver_refused(self, loop1):
        space, other = FockSpace(loop1, 2), CorrespondenceElement.zeros(Quiver([[2]]))
        for xi, eta in ((other, other), (CorrespondenceElement.zeros(loop1), other)):
            with pytest.raises(ValueError, match="^element lives over a different quiver$"):
                check_isometric_covariance(space, xi, eta)

    def test_depth_zero_rejected(self, loop1):
        space = FockSpace(loop1, 0)
        e = CorrespondenceElement.zeros(loop1)
        with pytest.raises(ValueError, match="depth too small"):
            check_isometric_covariance(space, e, e)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_quivers(self, seed):
        rng = np.random.default_rng(600 + seed)
        q = random_quiver(rng, max_n=3, max_entry=3)
        space = FockSpace(q, 3)
        dev = check_isometric_covariance(
            space, random_element(q, rng), random_element(q, rng)
        )
        assert dev <= 1e-12


class TestBimoduleCovariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_diagonal_sandwich_equals_twisted_element(self, seed):
        rng = np.random.default_rng(700 + seed)
        q = random_quiver(rng, max_n=3, max_entry=2)
        space = FockSpace(q, 3)
        xi = random_element(q, rng)
        d1 = rng.standard_normal(q.n) + 1j * rng.standard_normal(q.n)
        d2 = rng.standard_normal(q.n) + 1j * rng.standard_normal(q.n)
        lhs = (
            diag_operator(space, d1)
            @ creation_operator(space, xi)
            @ diag_operator(space, d2)
        )
        rhs = creation_operator(space, right_action(left_action(d1, xi), d2))
        assert operator_norm(lhs - rhs) <= 1e-12


class TestCornerShifts:
    def test_depth_zero_rejected(self, loop2):
        with pytest.raises(ValueError, match="^depth too small: the corner check needs depth >= 1$"):
            corner_shift_report(FockSpace(loop2, 0), 0)

    def test_two_loop_corner(self, loop2):
        space = FockSpace(loop2, 3)
        report = corner_shift_report(space, 0)
        assert report.ok
        assert report.loop_count == 2
        assert report.range_deficiency >= 1

    def test_mixed_quiver_corners(self):
        q = Quiver([[2, 1], [0, 1]])
        space = FockSpace(q, 3)
        for v in (0, 1):
            report = corner_shift_report(space, v)
            assert report.ok
            assert report.isometry_deviation == 0.0
            assert report.orthogonality_deviation == 0.0
            assert report.projector_deviation == 0.0

    def test_vertex_without_loops_rejected(self):
        q = Quiver([[0, 1], [0, 0]])
        space = FockSpace(q, 2)
        with pytest.raises(ValueError, match="no loops"):
            corner_shift_report(space, 0)


def oracle_quiver(rng):
    """A random quiver on at most 4 vertices with many zero blocks and, at
    random, a sink (no arrow leaves it) and a vertex that carries loops
    only."""
    n = int(rng.integers(1, 5))
    c = rng.integers(0, 3, size=(n, n)) * (rng.random((n, n)) < 0.5)
    order = rng.permutation(n)
    if n >= 2 and rng.random() < 0.5:
        c[:, order[0]] = 0
    if n >= 2 and rng.random() < 0.5:
        w = order[-1]
        loops = max(int(c[w, w]), 1)
        c[w, :] = 0
        c[:, w] = 0
        c[w, w] = loops
    return Quiver(c.tolist())


class TestArrayChecksMatchSparseOracle:
    """The checks ``verify`` makes, read off the path tree's arrays, equal
    the same checks on sparse products built path by path, bit for bit."""

    @pytest.mark.parametrize("depth", range(1, 5))
    @pytest.mark.parametrize("seed", range(20))
    def test_random_quivers(self, seed, depth):
        rng = np.random.default_rng(1100 + seed)
        q = oracle_quiver(rng)
        space = FockSpace(q, depth)
        paths = reference_enumerate_paths(q, depth)
        xi, eta = random_element(q, rng), random_element(q, rng)
        holes = random_element(q, rng)
        for k in range(len(holes.vector)):
            if rng.random() < 0.5:
                holes.vector[k] = 0.0
        zero = CorrespondenceElement.zeros(q)
        for el in (xi, eta, holes, zero):
            op = creation_operator(space, el)
            want = reference_creation_matrix(space, el, paths)
            assert operator_norm(op) == reference_shift_norm(want)
            assert_same_csr(op, want)
        for a, b in ((xi, eta), (xi, xi), (holes, eta), (zero, xi)):
            assert check_isometric_covariance(space, a, b) == reference_covariance_deviation(space, a, b)
        for v in q.vertices():
            if q.c[v][v]:
                assert corner_shift_report(space, v) == reference_corner_report(space, v)


def broken_space(q, depth, mutation):
    """A FockSpace of q whose path tree is broken at a loop child n + r of
    length ``depth`` (a path with no children, so no index moves), and the
    vertex of that loop: ``repoint`` gives the child the parent of another
    child of the same loop, so one parent has two children by that loop and
    its own parent none; ``drop`` removes it, so its parent has no child by
    that loop."""
    space = FockSpace(q, depth)
    n = q.n
    loops = [k for k, a in enumerate(q.arrows()) if a.source == a.target]
    r = int(np.flatnonzero(np.isin(space.last_arrow, loops) & (space.lengths[n:] == depth))[0])
    vertex = int(space.targets[n + r])
    if mutation == "repoint":
        same = np.flatnonzero(space.last_arrow == space.last_arrow[r])
        parent = space.parent.copy()
        parent[r] = space.parent[same[same != r][0]]
        space.parent = parent
    else:
        space.parent = np.delete(space.parent, r)
        space.last_arrow = np.delete(space.last_arrow, r)
        space.lengths = np.delete(space.lengths, n + r)
        space.targets = np.delete(space.targets, n + r)
    return space, vertex


@pytest.mark.parametrize("mutation", ["repoint", "drop"])
@pytest.mark.parametrize("c", [[[2]], [[2, 1], [0, 1]], [[0, 1], [1, 1]]])
def test_array_checks_fail_on_a_broken_tree(c, mutation):
    q = Quiver(c)
    depth = 3
    rng = np.random.default_rng(31)
    xi, eta = random_element(q, rng), random_element(q, rng)
    whole = FockSpace(q, depth)
    space, v = broken_space(q, depth, mutation)
    sound, broken = corner_shift_report(whole, v), corner_shift_report(space, v)
    assert sound.ok and not broken.ok
    # a parent without a child by the loop, and with repoint one with two
    # (an all-ones 2x2 block J in the range sum, J^2 - J = J)
    assert broken.isometry_deviation == 1.0
    assert broken.projector_deviation == (1.0 if mutation == "repoint" else 0.0)
    assert broken.orthogonality_deviation == 0.0
    # drop removes one corner row and one range row
    assert broken.range_deficiency == sound.range_deficiency
    assert check_isometric_covariance(whole, xi, eta) <= 1e-12
    assert check_isometric_covariance(space, xi, eta) > 0.0


def test_corner_report_reads_child_targets():
    # a loop child at vertex 0 whose end vertex reads 1 leaves the corner,
    # so its parent has no child by that loop there
    q = Quiver([[2, 1], [0, 1]])
    space = FockSpace(q, 3)
    r = int(np.flatnonzero((space.last_arrow == 0) & (space.lengths[q.n:] == 3))[0])
    targets = space.targets.copy()
    targets[q.n + r] = 1
    space.targets = targets
    report = corner_shift_report(space, 0)
    assert not report.ok
    assert report.isometry_deviation == 1.0
