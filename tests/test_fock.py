import numpy as np
import pytest
import scipy.sparse as sp

from quiveralg import (
    Arrow,
    CorrespondenceElement,
    DiagonalElement,
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
from quiveralg.fock import _power_iteration_norm
from helpers import (
    basis_index,
    random_element,
    random_polynomial,
    random_quiver,
    reference_creation_matrix,
)


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
        assert list(space.basis) == enumerate_paths(q, 3)
        assert space.dim == len(space.basis)

    @pytest.mark.parametrize("seed", range(6))
    def test_dimension_matches_matrix_power_sum(self, seed):
        rng = np.random.default_rng(seed)
        q = random_quiver(rng, max_n=3, max_entry=3)
        space = FockSpace(q, 4)
        expected = sum(
            int(np.linalg.matrix_power(q.matrix(), k).sum()) for k in range(5)
        )
        assert space.dim == expected

    def test_rejects_negative_depth(self, loop1):
        with pytest.raises(ValueError):
            FockSpace(loop1, -1)

    def test_refuses_more_paths_than_the_limit(self, loop2):
        # 2^21 - 1 paths: refused before any array is built
        with pytest.raises(ValueError, match="size limit"):
            FockSpace(loop2, 20)


class TestCreationOperator:
    def test_truncated_shift_chain(self, loop1):
        # basis [v, a, aa]: v -> a -> aa -> 0
        space = FockSpace(loop1, 2)
        t = creation_operator(space, CorrespondenceElement.basis(loop1, Arrow(0, 0, 0)))
        expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.array_equal(t.matrix.toarray(), expected)

    def test_zero_element(self, loop2):
        space = FockSpace(loop2, 3)
        t = creation_operator(space, CorrespondenceElement.zeros(loop2))
        assert t.matrix.nnz == 0

    def test_two_loops_have_orthogonal_ranges(self, loop2):
        space = FockSpace(loop2, 3)
        t1 = creation_operator(space, CorrespondenceElement.basis(loop2, Arrow(0, 0, 0)))
        t2 = creation_operator(space, CorrespondenceElement.basis(loop2, Arrow(0, 0, 1)))
        cross = (t1.matrix.conj().T @ t2.matrix).toarray()
        assert np.array_equal(cross, np.zeros_like(cross))
        gram = (t1.matrix.conj().T @ t1.matrix).toarray()
        inner = space.length_indices(space.depth - 1)
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
        for k, a in enumerate(q.arrows()):
            if k % 2 == 0:
                holes.blocks[a.target][a.source][a.index] = 0.0
        elements += [holes, CorrespondenceElement.zeros(q)]
        for depth in range(4):
            space = FockSpace(q, depth)
            for xi in elements:
                got = creation_operator(space, xi).matrix
                want = reference_creation_matrix(space, xi)
                assert got.shape == want.shape
                for name in ("data", "indices", "indptr"):
                    g, w = getattr(got, name), getattr(want, name)
                    assert g.dtype == w.dtype
                    assert g.tobytes() == w.tobytes()


class TestDiagOperator:
    def test_identity(self, loop2):
        space = FockSpace(loop2, 2)
        d = diag_operator(space, DiagonalElement.identity(1))
        assert np.array_equal(d.matrix.toarray(), np.eye(space.dim))

    def test_unit_gives_projection_onto_corner(self):
        q = Quiver([[0, 1], [0, 0]])
        space = FockSpace(q, 2)  # basis: v1, v2, the arrow (target 0)
        p0 = diag_operator(space, DiagonalElement.unit(2, 0)).matrix.toarray()
        diag = np.diagonal(p0)
        targets = [p.target for p in space.basis]
        assert np.array_equal(diag, np.array([1.0 if t == 0 else 0.0 for t in targets]))
        assert np.array_equal(p0 @ p0, p0)

    def test_target_row_convention(self):
        # the arrow 2 -> 1 picks up the first diagonal entry
        q = Quiver([[0, 1], [0, 0]])
        space = FockSpace(q, 2)
        d = diag_operator(space, DiagonalElement([2.0, 3.0]))
        a = basis_index(space.basis)[arrow_path(Arrow(1, 0, 0))]
        assert d.matrix[a, a] == 2.0


class TestEvaluatePolynomial:
    def test_vertex_gives_projection(self, loop2):
        space = FockSpace(loop2, 2)
        via_poly = evaluate_polynomial(space, PathPolynomial.vertex(loop2, 0))
        via_diag = diag_operator(space, DiagonalElement.unit(1, 0))
        assert np.array_equal(via_poly.matrix.toarray(), via_diag.matrix.toarray())

    def test_arrow_gives_creation(self, loop2):
        space = FockSpace(loop2, 2)
        a = Arrow(0, 0, 1)
        via_poly = evaluate_polynomial(space, PathPolynomial.arrow(loop2, a))
        direct = creation_operator(space, CorrespondenceElement.basis(loop2, a))
        assert np.array_equal(via_poly.matrix.toarray(), direct.matrix.toarray())

    def test_composable_word_is_matrix_product(self):
        q = Quiver([[1, 1], [0, 1]])
        space = FockSpace(q, 3)
        loop = Arrow(0, 0, 0)
        bridge = Arrow(1, 0, 0)
        word = compose(arrow_path(loop), arrow_path(bridge))
        via_poly = evaluate_polynomial(space, PathPolynomial.monomial(q, word))
        t_loop = evaluate_polynomial(space, PathPolynomial.arrow(q, loop))
        t_bridge = evaluate_polynomial(space, PathPolynomial.arrow(q, bridge))
        product = (t_loop.matrix @ t_bridge.matrix).toarray()
        assert np.array_equal(via_poly.matrix.toarray(), product)

    @pytest.mark.parametrize("seed", range(4))
    def test_homomorphism_on_untruncated_block(self, seed):
        # eval(p * q) equals eval(p) @ eval(q) wherever the depth never bites
        rng = np.random.default_rng(400 + seed)
        q = random_quiver(rng, max_n=3, max_entry=2)
        space = FockSpace(q, 5)
        p = random_polynomial(q, rng, max_degree=2, terms=4)
        r = random_polynomial(q, rng, max_degree=2, terms=4)
        lhs = evaluate_polynomial(space, p * r).matrix
        rhs = evaluate_polynomial(space, p).matrix @ evaluate_polynomial(space, r).matrix
        cut = space.length_indices(5 - 4)  # depth minus the two degrees
        block = (lhs - rhs).tocsr()[cut][:, cut]
        assert operator_norm(block) <= 1e-12


class TestOperatorNorm:
    def test_identity(self, loop2):
        space = FockSpace(loop2, 3)
        eye = diag_operator(space, DiagonalElement.identity(1))
        assert operator_norm(eye) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self, loop2):
        space = FockSpace(loop2, 3)
        z = creation_operator(space, CorrespondenceElement.zeros(loop2))
        assert operator_norm(z) == 0.0

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

    def test_power_iteration_matches_dense(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((60, 40)) + 1j * rng.standard_normal((60, 40))
        dense = float(np.linalg.svd(m, compute_uv=False)[0])
        assert _power_iteration_norm(sp.csr_matrix(m), 1e-12) == pytest.approx(
            dense, abs=1e-8
        )

    def test_power_iteration_zero_matrix(self):
        z = sp.csr_matrix((10, 10), dtype=complex)
        assert _power_iteration_norm(z, 1e-9) == 0.0

    def test_power_iteration_raises_when_not_converged(self):
        # top singular values 1 and 0.999: two steps cannot settle to 1e-15
        m = sp.diags([1.0, 0.999, 0.5], format="csr", dtype=complex)
        with pytest.raises(RuntimeError, match=r"2 iterations .*delta sigma"):
            _power_iteration_norm(m, 1e-15, max_iter=2)

    @pytest.mark.parametrize("seed", range(6))
    def test_weighted_shift_route_matches_svd(self, seed):
        rng = np.random.default_rng(900 + seed)
        q = random_quiver(rng, max_n=3, max_entry=2)
        space = FockSpace(q, 3)
        xi, eta = random_element(q, rng), random_element(q, rng)
        t_xi = creation_operator(space, xi).matrix
        t_eta = creation_operator(space, eta).matrix
        inner = space.length_indices(space.depth - 1)
        gram = (t_xi.conj().T @ t_eta).tocsr()[inner][:, inner]
        block = (
            t_xi.conj().T @ t_eta - diag_operator(space, inner_product(xi, eta)).matrix
        ).tocsr()[inner][:, inner]
        for mat in (t_xi, t_eta, gram, block):
            assert np.diff(mat.indptr).max() <= 1
            svd = float(np.linalg.svd(mat.toarray(), compute_uv=False)[0])
            assert abs(operator_norm(mat) - svd) <= 1e-13
            assert abs(operator_norm(mat.toarray()) - svd) <= 1e-13
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
        d1 = DiagonalElement(rng.standard_normal(q.n) + 1j * rng.standard_normal(q.n))
        d2 = DiagonalElement(rng.standard_normal(q.n) + 1j * rng.standard_normal(q.n))
        lhs = (
            diag_operator(space, d1).matrix
            @ creation_operator(space, xi).matrix
            @ diag_operator(space, d2).matrix
        )
        rhs = creation_operator(space, right_action(left_action(d1, xi), d2)).matrix
        assert operator_norm(lhs - rhs) <= 1e-12


class TestCornerShifts:
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
