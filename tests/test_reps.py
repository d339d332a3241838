import numpy as np
import pytest

from quiveralg import (
    Arrow,
    Character,
    CorrespondenceElement,
    PathPolynomial,
    Quiver,
    arrow_path,
    char_eval,
    compose,
    norm_table,
    rho_eval,
    t_tilde_product,
)
from quiveralg.reps import (
    TwoDimRep,
    _check_contractive,
    membership_G,
    t_tilde_k_matrix,
    t_tilde_k_norm_closed,
    t_tilde_k_norm_direct,
)
from helpers import (
    dyadic_ball_vector,
    dyadic_polynomial,
    random_contractive_params,
    random_polynomial,
    random_quiver,
    random_rep,
    random_unit_vector,
    reference_enumerate_paths,
    two_block_quiver,
)


@pytest.fixture
def loop2():
    return Quiver([[2]])


class TestCharacter:
    def test_closed_ball_enforced(self, loop2):
        Character(loop2, 0, [1.0, 0.0])  # boundary allowed
        with pytest.raises(ValueError, match="closed unit ball"):
            Character(loop2, 0, [1.5, 0.0])
        # NaN fails the norm comparison, so it is refused on its own
        for bad in ([np.nan, 0.0], [0.0, complex(0, np.inf)]):
            with pytest.raises(ValueError, match="finite"):
                Character(loop2, 0, bad)
        with pytest.raises(ValueError, match="finite"):
            Character(Quiver([[1]]), 0, [np.nan])

    def test_huge_finite_parameters_refused_without_overflow(self, loop2):
        # each norm is taken after dividing by the largest part; unscaled,
        # these squares overflow (a RuntimeWarning, an error in this suite)
        with pytest.raises(ValueError, match="closed unit ball, got norm 1e\\+308"):
            Character(loop2, 0, [1e308j, 0.0])
        with pytest.raises(ValueError, match="closed unit ball, got norm inf"):
            Character(loop2, 0, [1.7e308, -1.7e308j])
        with pytest.raises(ValueError, match=r"not contractive: \|\|gamma\|\|\^2 = inf"):
            TwoDimRep(Quiver([[2, 1], [0, 1]]), 0, 1, gamma=[1e200])

    def test_repr(self, loop2):
        assert repr(Character(loop2, 0, [0.5, 0])) == "Character(vertex=0, lam=[(0.5+0j), 0j])"

    def test_zero_loop_vertex_forces_empty_lam(self):
        q = Quiver([[0, 1], [0, 0]])
        c = Character(q, 0)
        assert c.lam.shape == (0,)
        with pytest.raises(ValueError, match="dimension"):
            Character(q, 0, [0.5])

    def test_lam_defaults_to_zero_at_a_loop_vertex(self, loop2):
        c = Character(loop2, 0)
        assert c.lam.dtype == complex and np.array_equal(c.lam, np.zeros(2))

    def test_interior_flag(self, loop2):
        assert Character(loop2, 0, [0.5, 0]).interior_flag
        assert not Character(loop2, 0, [1.0, 0]).interior_flag

    def test_loop_arrow_value(self, loop2):
        c = Character(loop2, 0, [0.5, 0.0])
        p = PathPolynomial.arrow(loop2, Arrow(0, 0, 0))
        assert char_eval(c, p) == 0.5

    def test_conjugate_linear_in_lam(self, loop2):
        # pairing <lam, .> conjugates the first slot
        c = Character(loop2, 0, [0.5j, 0.0])
        p = PathPolynomial.arrow(loop2, Arrow(0, 0, 0))
        assert char_eval(c, p) == -0.5j

    def test_vertex_values(self):
        q = Quiver([[1, 0], [0, 1]])
        c = Character(q, 0, [0.3])
        assert char_eval(c, PathPolynomial.vertex(q, 0)) == 1.0
        assert char_eval(c, PathPolynomial.vertex(q, 1)) == 0.0
        with pytest.raises(ValueError, match="^polynomial lives over a different quiver$"):
            char_eval(c, PathPolynomial.vertex(Quiver([[1, 0], [0, 2]]), 0))

    def test_monomial_product_of_loop_values(self, loop2):
        c = Character(loop2, 0, [0.5, 0.0])
        word = compose(arrow_path(Arrow(0, 0, 0)), arrow_path(Arrow(0, 0, 1)))
        p = PathPolynomial.monomial(loop2, word)
        assert char_eval(c, p) == 0.0  # second loop carries lam-entry 0

    def test_kills_non_loop_arrows(self):
        q = Quiver([[1, 1], [0, 0]])
        c = Character(q, 0, [0.5])
        bridge = PathPolynomial.arrow(q, Arrow(1, 0, 0))
        assert char_eval(c, bridge) == 0.0

    def test_degree_one_pairing_matches_block_inner_product(self, loop2):
        # on degree-1 elements the character is the pairing with the loop block
        rng = np.random.default_rng(0)
        c = Character(loop2, 0, dyadic_ball_vector(rng, 2))
        for _ in range(10):
            xi = CorrespondenceElement.random(loop2, rng)
            p = PathPolynomial.from_correspondence(xi)
            expected = np.vdot(c.lam, xi.block(0, 0))
            assert abs(char_eval(c, p) - expected) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_multiplicative_exactly_on_dyadic_draws(self, seed):
        rng = np.random.default_rng(800 + seed)
        q = Quiver([[2, 1], [0, 1]])
        c = Character(q, 0, dyadic_ball_vector(rng, 2))
        p = dyadic_polynomial(q, rng, max_degree=2, terms=4)
        r = dyadic_polynomial(q, rng, max_degree=2, terms=4)
        assert char_eval(c, p * r) == char_eval(c, p) * char_eval(c, r)


class TestTwoDimRepValidation:
    def test_distinct_vertices_required(self):
        q = two_block_quiver(1, 1, 1)
        with pytest.raises(ValueError, match="distinct"):
            TwoDimRep(q, 0, 0, [0.0], [0.0], [0.0])

    def test_repr(self):
        rep = TwoDimRep(Quiver([[1, 1], [0, 1]]), 0, 1, [0.5], [0.25j], [0.5])
        assert repr(rep) == "TwoDimRep(i=0, j=1, lam_i=[(0.5+0j)], lam_j=[0.25j], gamma=[(0.5+0j)])"

    def test_open_ball_required_for_diagonal_data(self):
        q = two_block_quiver(1, 1, 1)
        with pytest.raises(ValueError, match="open unit ball"):
            TwoDimRep(q, 0, 1, [1.0], [0.0], [0.0])

    def test_contractivity_constraint(self):
        q = two_block_quiver(1, 1, 0)
        TwoDimRep(q, 0, 1, [0.6], [], [0.8])  # equality case admitted
        with pytest.raises(ValueError, match="not contractive"):
            TwoDimRep(q, 0, 1, [0.8], [], [0.8])

    def test_batched_family_test_agrees_with_each_representation(self):
        """``_check_contractive`` on an array of squared gamma norms refuses
        exactly when ``TwoDimRep`` refuses one of them, naming the first
        refused value as ``TwoDimRep`` names it."""
        q = two_block_quiver(1, 1, 0)
        lam_i = 0.6
        for gammas in ([0.8, 0.5, 0.8 + 1e-13], [0.1, 0.9, 0.95], [0.81]):
            t = np.array(gammas) ** 2
            refused = [g for g in gammas if not membership_G(q, 0, 1, [lam_i], [], [g])]
            if not refused:
                _check_contractive(t, lam_i**2)
                continue
            with pytest.raises(ValueError) as batched:
                _check_contractive(t, lam_i**2)
            with pytest.raises(ValueError) as single:
                TwoDimRep(q, 0, 1, [lam_i], [], [refused[0]])
            assert str(batched.value) == str(single.value)

    def test_diagonal_data_defaults_to_zero(self):
        q = Quiver([[2, 1], [0, 3]])
        r = TwoDimRep(q, 0, 1, gamma=[0.5])
        assert r.lam_i.dtype == r.lam_j.dtype == complex
        assert np.array_equal(r.lam_i, np.zeros(2)) and np.array_equal(r.lam_j, np.zeros(3))

    def test_gamma_defaults_to_zero(self):
        q = Quiver([[0, 2], [0, 0]])
        r = TwoDimRep(q, 0, 1)
        assert r.gamma.dtype == complex and np.array_equal(r.gamma, np.zeros(2))
        assert TwoDimRep(q, 1, 0).gamma.shape == (0,)

    def test_dimension_checks(self):
        q = two_block_quiver(2, 1, 0)
        with pytest.raises(ValueError, match="dimension"):
            TwoDimRep(q, 0, 1, [0.5], [], [0.5])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TwoDimRep(Quiver([[10**15, 1], [0, 0]]), 0, 1, gamma=[0.5]),
            lambda: Character(Quiver([[10**15]]), 0),
            lambda: TwoDimRep(Quiver([[0, 10**15], [0, 0]]), 0, 1),
        ],
        ids=["two_dim_rep", "character", "omitted_gamma"],
    )
    def test_oversized_loop_space_refused_before_allocation(self, build):
        # an omitted lam at 10^15 loops, or an omitted gamma over 10^15
        # arrows, would be a 14 PiB zero vector
        with pytest.raises(ValueError, match="size limit exceeded"):
            build()


class TestMembership:
    def test_equality_case_is_member(self):
        q = two_block_quiver(1, 1, 0)
        assert membership_G(q, 0, 1, [0.6], [], [0.8])

    def test_violating_pair_is_not(self):
        q = two_block_quiver(1, 1, 0)
        assert not membership_G(q, 0, 1, [0.8], [], [0.8])
        # NaN passes the contractivity comparison, so it is refused on its own
        assert not membership_G(q, 0, 1, [0.0], [], [np.nan])
        assert not membership_G(q, 0, 1, [np.inf], [], [0.0])

    def test_zero_gamma_always_member(self):
        q = two_block_quiver(2, 1, 1)
        assert membership_G(q, 0, 1, [0.9, 0], [0.3], [0.0])

    def test_shape_mismatch_fails(self):
        q = two_block_quiver(2, 1, 0)
        assert not membership_G(q, 0, 1, [0.5], [], [0.5])
        assert not membership_G(q, 0, 0, [0.5, 0], [], [0.5])

    def test_lam_j_outside_ball_is_not(self):
        q = Quiver([[1, 1], [0, 1]])
        assert not membership_G(q, 0, 1, [0], [5.0], [0])

    def test_lam_i_on_sphere_is_not(self):
        # TwoDimRep needs both diagonal vectors in the open ball
        q = two_block_quiver(1, 1, 1)
        assert not membership_G(q, 0, 1, [1.0], [0.0], [0.0])


class TestRhoEval:
    def test_saturating_witness_matrix(self):
        # normalized diagonal and corner data produce [[|lam|, |gamma|], [0, 0]]
        q = two_block_quiver(2, 1, 0)
        rng = np.random.default_rng(1)
        lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lam = 0.6 * lam / np.linalg.norm(lam)
        gamma = np.array([0.8 * np.exp(0.7j)])
        rep = TwoDimRep(q, 0, 1, lam, [], gamma)
        xi = (
            CorrespondenceElement.zeros(q)
            .with_block(0, 0, lam / np.linalg.norm(lam))
            .with_block(0, 1, gamma / np.linalg.norm(gamma))
        )
        m = rho_eval(rep, PathPolynomial.from_correspondence(xi))
        expected = np.array([[0.6, 0.8], [0.0, 0.0]])
        assert np.allclose(m, expected, atol=1e-12)

    def test_sandwiched_bridge_hits_upper_corner(self):
        q = Quiver([[0, 1], [0, 0]])
        rep = TwoDimRep(q, 0, 1, [], [], [1.0])
        a = PathPolynomial.arrow(q, Arrow(1, 0, 0))
        p = PathPolynomial.vertex(q, 0) * a * PathPolynomial.vertex(q, 1)
        m = rho_eval(rep, p)
        assert m[0, 1] == 1.0
        assert np.allclose(m - np.array([[0, 1], [0, 0]]), 0)

    def test_zero_gamma_is_diagonal_pair_of_characters(self):
        q = two_block_quiver(2, 2, 1)
        rng = np.random.default_rng(2)
        lam_i = dyadic_ball_vector(rng, 2, strict=True)
        lam_j = dyadic_ball_vector(rng, 1, strict=True)
        rep = TwoDimRep(q, 0, 1, lam_i, lam_j, np.zeros(2))
        ci = Character(q, 0, lam_i)
        cj = Character(q, 1, lam_j)
        for _ in range(10):
            p = random_polynomial(q, rng, max_degree=2, terms=4)
            m = rho_eval(rep, p)
            assert m[1, 0] == 0
            assert m[0, 1] == 0
            assert m[0, 0] == pytest.approx(char_eval(ci, p), abs=1e-12)
            assert m[1, 1] == pytest.approx(char_eval(cj, p), abs=1e-12)

    def test_vertex_values(self):
        q = Quiver([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
        rep = TwoDimRep(q, 0, 2, [0.1], [0.2], [])
        assert np.array_equal(rho_eval(rep, PathPolynomial.vertex(q, 0)), np.diag([1, 0]).astype(complex))
        assert np.array_equal(rho_eval(rep, PathPolynomial.vertex(q, 2)), np.diag([0, 1]).astype(complex))
        assert np.array_equal(rho_eval(rep, PathPolynomial.vertex(q, 1)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="^polynomial lives over a different quiver$"):
            rho_eval(rep, PathPolynomial.vertex(Quiver([[1, 0, 0], [0, 0, 0], [0, 0, 2]]), 0))

    @pytest.mark.parametrize("seed", range(8))
    def test_homomorphism_exactly_on_dyadic_draws(self, seed):
        rng = np.random.default_rng(900 + seed)
        q = two_block_quiver(2, 1, 1)
        rep = TwoDimRep(
            q,
            0,
            1,
            dyadic_ball_vector(rng, 2, strict=True),
            dyadic_ball_vector(rng, 1, strict=True),
            dyadic_ball_vector(rng, 1) * 0.5,
        )
        p = dyadic_polynomial(q, rng, max_degree=3, terms=4)
        r = dyadic_polynomial(q, rng, max_degree=3, terms=4)
        assert np.array_equal(rho_eval(rep, p * r), rho_eval(rep, p) @ rho_eval(rep, r))

    @pytest.mark.parametrize("seed", range(8))
    def test_diagonal_compatibility_exactly(self, seed):
        # condition on the diagonal: entries agree with the two characters
        rng = np.random.default_rng(1000 + seed)
        q = two_block_quiver(2, 2, 1)
        lam_i = dyadic_ball_vector(rng, 2, strict=True)
        lam_j = dyadic_ball_vector(rng, 1, strict=True)
        rep = TwoDimRep(q, 0, 1, lam_i, lam_j, dyadic_ball_vector(rng, 2) * 0.25)
        ci, cj = Character(q, 0, lam_i), Character(q, 1, lam_j)
        p = dyadic_polynomial(q, rng, max_degree=3, terms=5)
        m = rho_eval(rep, p)
        assert m[0, 0] == char_eval(ci, p)
        assert m[1, 1] == char_eval(cj, p)
        assert m[1, 0] == 0


class TestTTildeProduct:
    def test_boundary_example(self):
        q = two_block_quiver(2, 1, 0)
        rep = TwoDimRep(q, 0, 1, [0.6, 0.0], [], [0.8])
        assert np.allclose(t_tilde_product(rep), np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_parameters(self):
        q = two_block_quiver(1, 1, 1)
        rep = TwoDimRep(q, 0, 1, [0.0], [0.0], [0.0])
        assert np.array_equal(t_tilde_product(rep), np.zeros((2, 2)))

    def test_pure_corner_and_lower_loop(self):
        q = two_block_quiver(0, 1, 1)
        g, h = 0.3 + 0.4j, -0.55j
        rep = TwoDimRep(q, 0, 1, [], [h], [g])
        assert np.allclose(
            t_tilde_product(rep), np.diag([abs(g) ** 2, abs(h) ** 2]), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_assembled_product_is_diagonal_formula(self, seed):
        rng = np.random.default_rng(1100 + seed)
        dims = rng.integers(0, 5, size=3)
        q = two_block_quiver(*map(int, dims))
        lam_i, lam_j, gamma = random_contractive_params(rng, *map(int, dims))
        tt = t_tilde_k_matrix(q, 0, 1, lam_i, lam_j, gamma, 1)
        assembled = tt @ tt.conj().T
        q1 = np.linalg.norm(lam_i) ** 2
        q2 = np.linalg.norm(lam_j) ** 2
        t = np.linalg.norm(gamma) ** 2
        assert np.max(np.abs(assembled - np.diag([q1 + t, q2]))) <= 1e-12


class TestNormRecursion:
    def test_k1_formula(self):
        q = two_block_quiver(1, 1, 1)
        rep = TwoDimRep(q, 0, 1, [0.5], [0.7], [0.6])
        q1, q2, t = 0.25, 0.49, 0.36
        assert t_tilde_k_norm_closed(rep, 1) == pytest.approx(np.sqrt(max(q1 + t, q2)))

    def test_k2_hand_value(self):
        # q1 = t = 1/4, q2 = 0: max(1/16 + 1/16, 0) = 1/8
        q = two_block_quiver(1, 1, 0)
        rep = TwoDimRep(q, 0, 1, [0.5], [], [0.5])
        assert t_tilde_k_norm_closed(rep, 2) == pytest.approx(np.sqrt(0.125), abs=1e-15)
        assert t_tilde_k_norm_direct(rep, 2) == pytest.approx(np.sqrt(0.125), abs=1e-12)

    def test_zero_gamma_decouples(self):
        q = two_block_quiver(1, 0, 1)
        rep = TwoDimRep(q, 0, 1, [0.5], [0.8], [])
        for k in range(1, 5):
            expected = np.sqrt(max(0.25**k, 0.64**k))
            assert t_tilde_k_norm_closed(rep, k) == pytest.approx(expected, abs=1e-15)

    def test_degenerate_branch_matches_direct(self):
        # identical diagonal vectors force the telescoped sum onto its limit
        q = two_block_quiver(2, 1, 2)
        lam = np.array([0.4, 0.3j])
        rep = TwoDimRep(q, 0, 1, lam, lam, [0.5])
        for k in range(1, 6):
            closed = t_tilde_k_norm_closed(rep, k)
            direct = t_tilde_k_norm_direct(rep, k)
            assert abs(closed - direct) <= 1e-10

    @pytest.mark.parametrize("seed", range(12))
    def test_closed_matches_direct(self, seed):
        rng = np.random.default_rng(1200 + seed)
        dims = tuple(int(d) for d in rng.integers(0, 4, size=3))
        q = two_block_quiver(*dims)
        lam_i, lam_j, gamma = random_contractive_params(rng, *dims)
        rep = TwoDimRep(q, 0, 1, lam_i, lam_j, gamma)
        for k in range(1, 7):
            assert abs(
                t_tilde_k_norm_closed(rep, k) - t_tilde_k_norm_direct(rep, k)
            ) <= 1e-10

    @pytest.mark.parametrize("seed", range(12))
    def test_direct_matches_assembled_svd(self, seed):
        # the Gram recursion against the singular values of the explicit
        # 2 x d assembly, on quivers with arrows i -> j and extra vertices
        rng = np.random.default_rng(1300 + seed)
        n = 2 + seed % 3
        while True:
            c = rng.choice(3, size=(n, n), p=[0.5, 0.35, 0.15])
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            c[i][j] = max(c[i][j], 1)
            c[j][i] = max(c[j][i], 1)
            for u in set(range(n)) - {i, j}:
                c[u][i] = max(c[u][i], 1)
                c[j][u] = max(c[j][u], 1)
            starts = c[:, i] + c[:, j]
            if int(np.sum(np.linalg.matrix_power(c, 5) @ starts)) <= 3000:
                break
        q = Quiver(c.tolist())
        lam_i = random_unit_vector(rng, q.c[i][i]) * rng.uniform(0.3, 0.95)
        lam_j = random_unit_vector(rng, q.c[j][j]) * rng.uniform(0.3, 0.95)
        t_max = np.sqrt(1.0 - np.linalg.norm(lam_i) ** 2)
        gamma = random_unit_vector(rng, q.c[i][j]) * rng.uniform(0.5, 1.0) * t_max
        rep = TwoDimRep(q, i, j, lam_i, lam_j, gamma)
        for k in range(1, 7):
            m = t_tilde_k_matrix(q, i, j, lam_i, lam_j, gamma, k)
            sigma = np.linalg.svd(m, compute_uv=False)[0] if m.size else 0.0
            assert abs(t_tilde_k_norm_direct(rep, k) - sigma) <= 1e-13

    @pytest.mark.parametrize("seed", range(24))
    def test_norm_table_rows_are_the_single_k_values(self, seed):
        # i < j on even seeds and i > j on odd ones; none or one of the blocks
        # (i, i), (i, j), (j, j) emptied; lam_i == lam_j every third seed
        rng = np.random.default_rng(1500 + seed)
        n = 2 + seed % 3
        empty = [None, (0, 0), (0, 1), (1, 1)][seed // 2 % 4]
        while True:
            c = rng.choice(3, size=(n, n), p=[0.5, 0.35, 0.15])
            i, j = sorted((int(v) for v in rng.choice(n, size=2, replace=False)), reverse=seed % 2 == 1)
            if empty is not None:
                c[(i, j)[empty[0]]][(i, j)[empty[1]]] = 0
            if seed % 3 == 0:
                c[i][i] = c[j][j] = min(c[i][i], c[j][j])
            starts = c[:, i] + c[:, j]
            if int(np.sum(np.linalg.matrix_power(c, 5) @ starts)) <= 3000:
                break
        q = Quiver(c.tolist())
        lam_i, lam_j, gamma = random_contractive_params(rng, q.count(i, i), q.count(i, j), q.count(j, j))
        if seed % 3 == 0:
            lam_j = lam_i
        rep = TwoDimRep(q, i, j, lam_i, lam_j, gamma)
        table = norm_table(rep, 8)
        assert len(table) == 8
        q1, q2, t = rep.squared_params()
        for k, (closed, direct, bound) in enumerate(table, 1):
            assert closed == t_tilde_k_norm_closed(rep, k)
            assert direct == t_tilde_k_norm_direct(rep, k)
            assert bound == max(q1, q2) ** k + k * t * max(q1, q2) ** (k - 1)
            if k <= 6:
                m = t_tilde_k_matrix(q, i, j, lam_i, lam_j, gamma, k)
                sigma = np.linalg.svd(m, compute_uv=False)[0] if m.size else 0.0
                assert abs(direct - sigma) <= 1e-13

    def test_norm_table_is_one_sweep(self, monkeypatch):
        # one stacked eigvalsh for all rows, q1, q2 and t read once, and no
        # walk over the quiver's arrows
        rep = random_rep(np.random.default_rng(7), 3, 3, 3)
        calls = {"eigvalsh": 0, "squared_params": 0}
        eigvalsh, squared_params = np.linalg.eigvalsh, TwoDimRep.squared_params

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        def refused(*args):
            raise AssertionError("the table walked the quiver")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
        monkeypatch.setattr(TwoDimRep, "squared_params", counted("squared_params", squared_params))
        for name in ("block", "count", "arrows"):
            monkeypatch.setattr(Quiver, name, refused)
        assert len(norm_table(rep, 100)) == 100
        assert calls == {"eigvalsh": 1, "squared_params": 1}

    def test_direct_k_range(self):
        # k >= 1 is the only bound on k
        rep = random_rep(np.random.default_rng(3), 1, 1, 1)
        for k in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                t_tilde_k_norm_direct(rep, k)
        assert abs(t_tilde_k_norm_direct(rep, 40) - t_tilde_k_norm_closed(rep, 40)) <= 1e-12

    def test_k_matrix_rejects_k_zero(self):
        rep = random_rep(np.random.default_rng(4), 1, 1, 1)
        with pytest.raises(ValueError):
            t_tilde_k_matrix(rep.quiver, 0, 1, rep.lam_i, rep.lam_j, rep.gamma, 0)

    def test_k_matrix_rejects_surplus_parameter(self):
        q = Quiver([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="dimensions"):
            t_tilde_k_matrix(q, 0, 1, [0.5, 3], [0.1], [0.2], 2)

    def test_k_matrix_refuses_equal_vertices_as_the_rep_does(self):
        q = Quiver([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="^the two diagonal vertices must be distinct$"):
            t_tilde_k_matrix(q, 0, 0, [0.5], [0.5], [0.5], 2)

    def test_closed_norm_and_bound_reject_k_zero(self):
        rep = random_rep(np.random.default_rng(6), 1, 1, 1)
        for k in (0, -1):
            with pytest.raises(ValueError, match="^k must be at least 1$"):
                t_tilde_k_norm_closed(rep, k)
            with pytest.raises(ValueError, match="^k must be at least 1$"):
                norm_table(rep, k)

    def test_k_matrix_without_paths_is_empty(self):
        # the one arrow leaves j = 1 and ends at i = 0, where no arrow leaves
        q = Quiver([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
        assert t_tilde_k_matrix(q, 0, 1, [], [], [0.5], 1).shape == (2, 1)
        for i, j, k in [(0, 1, 2), (0, 1, 5), (1, 0, 3)]:
            m = t_tilde_k_matrix(q, i, j, [], [], [0.5] if i == 0 else [], k)
            assert m.shape == (2, 0) and m.dtype == complex

    @pytest.mark.parametrize("seed", range(6))
    def test_k_matrix_columns_are_path_images(self, seed):
        # column p is rho(p) at the slot of p's base, over the length-k paths
        # from i or j in reference order
        rng = np.random.default_rng(1400 + seed)
        q = random_quiver(rng, max_n=4, max_entry=2, min_n=2)
        i, j = (int(v) for v in rng.choice(q.n, size=2, replace=False))
        lam_i, lam_j, gamma = random_contractive_params(rng, q.count(i, i), q.count(i, j), q.count(j, j))
        rep = TwoDimRep(q, i, j, lam_i, lam_j, gamma)
        for k in range(1, 5):
            paths = [p for p in reference_enumerate_paths(q, k) if p.length == k and p.base in (i, j)]
            want = [rho_eval(rep, PathPolynomial.monomial(q, p))[:, 0 if p.base == i else 1] for p in paths]
            got = t_tilde_k_matrix(q, i, j, lam_i, lam_j, gamma, k)
            assert got.shape == (2, len(paths))
            assert np.allclose(got, np.array(want).reshape(-1, 2).T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "c, k, match",
        [
            ([[2, 0], [0, 0]], 20, "paths"),  # 2**21 paths of length <= 20
            ([[1, 0], [0, 1]], 6000, "arrow tokens"),  # about 3.6e7 tokens in 12,002 paths
        ],
    )
    def test_k_matrix_refuses_past_the_path_limits(self, c, k, match):
        q = Quiver(c)
        with pytest.raises(ValueError, match=f"^size limit exceeded: refusing more than .* {match}"):
            t_tilde_k_matrix(q, 0, 1, [0.5] * c[0][0], [0.5] * c[1][1], [], k)


class TestPurityBound:
    def test_nilpotent_case(self):
        # no diagonal data at all: the bound and the norm both vanish at k = 2
        q = two_block_quiver(0, 1, 0)
        rep = TwoDimRep(q, 0, 1, [], [], [1.0])
        assert norm_table(rep, 2)[-1][1:] == (0.0, 0.0)

    def test_hand_value(self):
        # q = t = 1/4, k = 3: 1/64 + 3/4 * 1/16 = 1/16
        q = two_block_quiver(1, 1, 0)
        rep = TwoDimRep(q, 0, 1, [0.5], [], [0.5])
        _, direct, bound = norm_table(rep, 3)[-1]
        assert bound == pytest.approx(0.0625, abs=1e-15)
        assert direct**2 <= 0.0625 + 1e-12

    def test_eventually_monotone_decay(self):
        q = two_block_quiver(1, 1, 0)
        rep = TwoDimRep(q, 0, 1, [0.5], [], [0.5])
        values = [bound for _, _, bound in norm_table(rep, 9)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("seed", range(10))
    def test_bounds_squared_direct_norm(self, seed):
        rng = np.random.default_rng(1300 + seed)
        rep = random_rep(rng, 2, 2, 2)
        for _, direct, bound in norm_table(rep, 6):
            assert direct**2 <= bound + 1e-12

    def test_pure_regime_precondition(self):
        rep = random_rep(np.random.default_rng(5), 1, 1, 1)
        rep.lam_i = np.array([1.0 + 0j])  # force a boundary vector past validation
        with pytest.raises(ValueError, match="pure regime"):
            norm_table(rep, 2)


class TestContractivityBoundary:
    @pytest.mark.parametrize("seed", range(5))
    def test_witness_norm_is_one_at_saturation(self, seed):
        rng = np.random.default_rng(1400 + seed)
        q = two_block_quiver(2, 2, 1)
        lam_i, lam_j, gamma = random_contractive_params(rng, 2, 2, 1, boundary=True)
        rep = TwoDimRep(q, 0, 1, lam_i, lam_j, gamma)
        xi = CorrespondenceElement.zeros(q)
        if np.linalg.norm(lam_i):
            xi = xi.with_block(0, 0, lam_i / np.linalg.norm(lam_i))
        xi = xi.with_block(0, 1, gamma / np.linalg.norm(gamma))
        m = rho_eval(rep, PathPolynomial.from_correspondence(xi))
        assert np.linalg.norm(m, 2) == pytest.approx(1.0, abs=1e-12)

    def test_bumped_gamma_exceeds_one(self):
        q = two_block_quiver(1, 1, 0)
        lam_i = np.array([0.6])
        t_bumped = 1.0 - 0.36 + 0.01
        gamma = np.array([np.sqrt(t_bumped)])
        tt = t_tilde_k_matrix(q, 0, 1, lam_i, [], gamma, 1)
        norm = np.linalg.svd(tt, compute_uv=False)[0]
        assert norm > 1.0
        assert norm == pytest.approx(np.sqrt(0.36 + t_bumped), abs=1e-12)
