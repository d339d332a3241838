import numpy as np
import pytest

from quiveralg import (
    Arrow,
    CorrespondenceElement,
    FockSpace,
    Path,
    PathPolynomial,
    Quiver,
    arrow_path,
    compose,
    creation_operator,
    evaluate_polynomial,
    format_path,
    format_polynomial,
    operator_norm,
    parse_polynomial,
    vertex_path,
)
from helpers import random_element, random_polynomial, random_quiver


@pytest.fixture
def q():
    return Quiver([[1, 2], [0, 1]])


class TestArithmetic:
    def test_add_zero(self, q):
        rng = np.random.default_rng(0)
        p = random_polynomial(q, rng)
        assert p + PathPolynomial.zero(q) == p

    def test_scale_one(self, q):
        rng = np.random.default_rng(1)
        p = random_polynomial(q, rng)
        assert 1.0 * p == p

    def test_add_then_subtract(self, q):
        rng = np.random.default_rng(2)
        p, r = random_polynomial(q, rng), random_polynomial(q, rng)
        assert (p + r) - r == p

    def test_zero_coefficients_pruned(self, q):
        p = PathPolynomial(q, {vertex_path(0): 0.0})
        assert not p.terms
        assert p.degree == -1

    def test_quiver_mismatch(self, q):
        other = PathPolynomial.vertex(Quiver([[1]]), 0)
        with pytest.raises(ValueError, match="different quivers"):
            PathPolynomial.vertex(q, 0) + other

    def test_foreign_path_rejected(self, q):
        with pytest.raises(ValueError):
            PathPolynomial(q, {vertex_path(5): 1.0})


class TestMultiplication:
    def test_orthogonal_idempotents(self, q):
        v0 = PathPolynomial.vertex(q, 0)
        v1 = PathPolynomial.vertex(q, 1)
        assert v0 * v0 == v0
        assert (v0 * v1).terms == {}

    def test_composable_arrows(self, q):
        # loop at 0 composed with the arrow 1 -> 0
        loop = PathPolynomial.arrow(q, Arrow(0, 0, 0))
        bridge = PathPolynomial.arrow(q, Arrow(1, 0, 0))
        prod = loop * bridge  # walk the bridge, then the loop
        assert len(prod.terms) == 1
        (path, coeff), = prod.terms.items()
        assert coeff == 1.0 and path.length == 2
        assert path.source == 1 and path.target == 0

    def test_unit_is_vertex_sum(self, q):
        rng = np.random.default_rng(3)
        p = random_polynomial(q, rng)
        one = PathPolynomial.unit(q)
        assert one * p == p
        assert p * one == p

    def test_associative(self, q):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = random_polynomial(q, rng, max_degree=1, terms=3)
            r = random_polynomial(q, rng, max_degree=1, terms=3)
            s = random_polynomial(q, rng, max_degree=1, terms=3)
            lhs, rhs = (p * r) * s, p * (r * s)
            assert (lhs - rhs).coeff_norm() < 1e-12

    def test_degree_cap(self):
        q1 = Quiver([[1]])
        a = PathPolynomial.arrow(q1, Arrow(0, 0, 0))
        high = a
        for _ in range(9):
            high = high * a  # degree 10
        with pytest.raises(ValueError, match="degree cap"):
            high * high

    def test_degree_cap_with_a_vertex_factor(self):
        # a vertex adds no degree, but a factor already past the cap is refused
        q1 = Quiver([[1]])
        loop = Arrow(0, 0, 0)
        e = PathPolynomial.vertex(q1, 0)
        at_cap = PathPolynomial.monomial(q1, Path(0, (loop,) * 16))
        assert (e * at_cap) == at_cap == (at_cap * e)
        past = PathPolynomial.monomial(q1, Path(0, (loop,) * 17))
        for x, y in [(e, past), (past, e)]:
            with pytest.raises(ValueError, match="degree cap exceeded: .* degree 17 > 16"):
                x * y


class TestFromCorrespondence:
    def test_basis_arrow_maps_to_unit_monomial(self, q):
        a = Arrow(1, 0, 1)
        p = PathPolynomial.from_correspondence(CorrespondenceElement.basis(q, a))
        assert p == PathPolynomial.arrow(q, a)

    def test_zero_maps_to_zero(self, q):
        assert not PathPolynomial.from_correspondence(CorrespondenceElement.zeros(q))

    @pytest.mark.parametrize("seed", range(4))
    def test_linearity_against_creation_operator(self, seed):
        # the polynomial image evaluates to exactly the creation operator
        rng = np.random.default_rng(40 + seed)
        q = random_quiver(rng, max_n=3, max_entry=2)
        space = FockSpace(q, 3)
        xi = random_element(q, rng)
        via_poly = evaluate_polynomial(space, PathPolynomial.from_correspondence(xi))
        direct = creation_operator(space, xi)
        assert operator_norm(via_poly.matrix - direct.matrix) <= 1e-12


class TestTextForm:
    def test_format_vertex(self):
        assert format_path(vertex_path(0)) == "v1"

    def test_format_arrow_and_word(self, q):
        loop = Arrow(0, 0, 0)
        bridge = Arrow(1, 0, 1)
        assert format_path(arrow_path(loop)) == "1<1:1"
        # walked bridge first, loop second: reads loop*bridge
        word = compose(arrow_path(loop), arrow_path(bridge))
        assert format_path(word) == "1<1:1*1<2:2"

    def test_parse_simple(self, q):
        p = parse_polynomial(q, "v1 + 2*1<2:1")
        assert p.coefficient(vertex_path(0)) == 1.0
        (arrow_term,) = [t for t in p.terms if t.length == 1]
        assert p.coefficient(arrow_term) == 2.0

    def test_parse_complex_literals(self, q):
        p = parse_polynomial(q, "(1+2j)*v2 - 1j*v1")
        assert p.coefficient(vertex_path(1)) == 1 + 2j
        assert p.coefficient(vertex_path(0)) == -1j

    def test_parse_chained_product(self, q):
        p = parse_polynomial(q, "1<1:1*1<2:2")
        (path,) = p.terms
        assert path.length == 2 and path.source == 1 and path.target == 0

    def test_parse_non_composable_is_zero(self, q):
        assert not parse_polynomial(q, "1<2:1*1<2:1").terms

    def test_parse_bare_scalar_is_multiple_of_unit(self, q):
        p = parse_polynomial(q, "2")
        assert p == PathPolynomial.unit(q).scaled(2.0)

    def test_parse_rejects_bad_arrow_index(self, q):
        with pytest.raises(ValueError, match="index out of range"):
            parse_polynomial(q, "1<2:3")

    def test_parse_rejects_bad_vertex(self, q):
        with pytest.raises(ValueError, match="out of range"):
            parse_polynomial(q, "v3")

    def test_parse_rejects_garbage(self, q):
        with pytest.raises(ValueError, match="tokenize"):
            parse_polynomial(q, "v1 & v2")
        with pytest.raises(ValueError):
            parse_polynomial(q, "")
        with pytest.raises(ValueError):
            parse_polynomial(q, "v1 v2")

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(60 + seed)
        q = random_quiver(rng, max_n=3, max_entry=2)
        p = random_polynomial(q, rng, max_degree=2, terms=5)
        back = parse_polynomial(q, format_polynomial(p))
        assert (p - back).coeff_norm() < 1e-12

    def test_format_zero(self, q):
        assert format_polynomial(PathPolynomial.zero(q)) == "0"
        assert not parse_polynomial(q, "0").terms
