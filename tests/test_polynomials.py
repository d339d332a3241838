import time

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
    enumerate_paths,
    evaluate_polynomial,
    format_path,
    format_polynomial,
    operator_norm,
    parse_polynomial,
    vertex_path,
)
from helpers import random_element, random_polynomial, random_quiver, reference_product


@pytest.fixture
def q():
    return Quiver([[1, 2], [0, 1]])


@pytest.fixture
def checked(monkeypatch):
    """The paths ``PathPolynomial._check_path`` is called on."""
    paths = []
    check = PathPolynomial._check_path
    monkeypatch.setattr(
        PathPolynomial, "_check_path", staticmethod(lambda quiver, path: paths.append(path) or check(quiver, path))
    )
    return paths


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
        assert (p + r) + (-r) == p
        assert -(-p) == p and (-p).terms == {path: -c for path, c in p.terms.items()}

    @pytest.mark.parametrize(
        "coeff",
        [np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 1)],
        ids=["nan", "inf", "imaginary_inf", "nan_real"],
    )
    def test_rejects_non_finite_coefficients(self, q, coeff):
        with pytest.raises(ValueError, match="^coefficients must be finite, got "):
            PathPolynomial(q, {vertex_path(0): coeff})
        with pytest.raises(ValueError, match="^coefficients must be finite, got "):
            PathPolynomial.monomial(q, arrow_path(Arrow(0, 0, 0)), coeff)

    @pytest.mark.parametrize(
        "build, got",
        [
            (lambda v, x: v.scaled(1e308) * 10, "(inf+0j)"),
            (lambda v, x: v.scaled(1e308) + v.scaled(1e308), "(inf+0j)"),
            (lambda v, x: x.scaled(1e200) * x.scaled(1e200), "(inf+0j)"),
            (lambda v, x: v * float("nan"), "(nan+nanj)"),
        ],
        ids=["scaled", "sum", "product", "nan_scalar"],
    )
    def test_arithmetic_refuses_a_non_finite_coefficient(self, build, got):
        # sums, multiples and products check no path, but keep the
        # constructor's refusal of a coefficient that overflows or is NaN
        q = Quiver([[1]])
        v, x = PathPolynomial.vertex(q, 0), PathPolynomial.arrow(q, Arrow(0, 0, 0))
        with pytest.raises(ValueError) as info:
            build(v, x)
        assert str(info.value) == f"coefficients must be finite, got {got}"

    def test_rejects_a_path_off_the_quiver(self, q):
        with pytest.raises(ValueError, match=r"^Arrow\(source=1, target=0, index=2\) is not an arrow of this quiver$"):
            PathPolynomial(q, {arrow_path(Arrow(1, 0, 2)): 1.0})
        with pytest.raises(ValueError, match="^path base 2 out of range$"):
            PathPolynomial(q, {vertex_path(2): 1.0})

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

    def test_product_checks_no_path(self, q, checked):
        # a composition of two of the quiver's paths is one of its paths
        rng = np.random.default_rng(5)
        p, r = random_polynomial(q, rng), random_polynomial(q, rng)
        want = reference_product(p, r)
        assert want
        checked.clear()
        got = p * r
        assert checked == []
        assert list(got.terms.items()) == list(want.terms.items())

    def test_sum_and_scaling_check_no_path(self, q, checked):
        # the terms of a sum or a multiple are paths of the operands
        rng = np.random.default_rng(6)
        p, r = random_polynomial(q, rng), random_polynomial(q, rng)
        checked.clear()
        total, scaled = p + r, p.scaled(2 - 1j)
        assert checked == []
        assert total.terms == {
            w: z for w in {**p.terms, **r.terms} if (z := p.coefficient(w) + r.coefficient(w))
        }
        assert scaled.terms == {w: (2 - 1j) * z for w, z in p.terms.items()}


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
        assert operator_norm(via_poly - direct) <= 1e-12


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

    @pytest.mark.parametrize("text", ["3<1:1", "1<3:1", "0<1:1"])
    def test_parse_rejects_arrow_token_out_of_range(self, q, text):
        with pytest.raises(ValueError, match=rf"^arrow token '{text}': vertex out of range 1\.\.2$"):
            parse_polynomial(q, text)

    def test_parse_rejects_bad_complex_literal(self, q):
        with pytest.raises(ValueError, match=r"^bad complex literal '\(abc\)'$"):
            parse_polynomial(q, "(abc)*v1")

    def test_parse_drops_a_sum_that_cancels(self, q):
        arrow = PathPolynomial.monomial(q, arrow_path(Arrow(0, 0, 0)))
        assert parse_polynomial(q, "1<1:1 - 1<1:1") == PathPolynomial.zero(q)
        assert parse_polynomial(q, "1<1:1 - 1<1:1 + 1<1:1") == arrow

    def test_parse_rejects_garbage(self, q):
        with pytest.raises(ValueError, match="tokenize"):
            parse_polynomial(q, "v1 & v2")
        with pytest.raises(ValueError):
            parse_polynomial(q, "")
        with pytest.raises(ValueError):
            parse_polynomial(q, "v1 v2")

    @pytest.mark.parametrize(
        "text",
        [
            "(nan)*1<1:1",
            "1e999*v1",
            "(inf)*v2",
            "(nanj)*1<2:1*1<2:1",  # a zero product still refuses its NaN
            "1e200*1e200*v1",
            "1e308*v1 + 1e308*v1",
        ],
    )
    def test_parse_rejects_non_finite_coefficients(self, q, text):
        with pytest.raises(ValueError, match="finite"):
            parse_polynomial(q, text)

    def test_parse_refuses_a_sum_that_overflows_as_arithmetic_does(self, q):
        with pytest.raises(ValueError) as info:
            parse_polynomial(q, "1e308*v1 + 1e308*v1")
        assert str(info.value) == "coefficients must be finite, got (inf+0j)"

    @pytest.mark.parametrize("text", ["2*", "-", "v1 +", "v1 - 3*1<1:1*"])
    def test_parse_names_the_end_of_the_text(self, q, text):
        with pytest.raises(ValueError, match="text ends where a monomial or scalar was expected"):
            parse_polynomial(q, text)

    @pytest.mark.parametrize(
        "text, message",
        [
            # a term's coefficient is checked before the token after the term
            ("(nan) v1", "coefficients must be finite, got (nan+nanj)"),
            ("(nan)*v1 v1", "coefficients must be finite, got (nan+nanj)"),
            ("1e308*1e308 + v1 v2", "coefficients must be finite, got (inf+0j)"),
            ("v1 v1", "unexpected token 'v1' where '+' or '-' was expected"),
            ("2*", "polynomial text ends where a monomial or scalar was expected"),
            ("-", "polynomial text ends where a monomial or scalar was expected"),
            ("2 +", "polynomial text ends where a monomial or scalar was expected"),
            ("- -v1", "unexpected token '-' where a monomial or scalar was expected"),
            ("+ + v1", "unexpected token '+' where a monomial or scalar was expected"),
            ("*v1", "unexpected token '*' where a monomial or scalar was expected"),
            # the whole text is tokenized before any term is read
            ("v1 $", "cannot tokenize polynomial text at position 3: '$'"),
        ],
    )
    def test_parse_reports_the_first_error_of_a_malformed_text(self, q, text, message):
        with pytest.raises(ValueError) as info:
            parse_polynomial(q, text)
        assert str(info.value) == message

    def test_parse_folds_past_the_product_degree_cap(self, q):
        # the parser composes a term's paths itself, so text may name a
        # monomial longer than MAX_DEGREE, which products refuse to reach
        text = "*".join(["1<1:1"] * 17)
        p = parse_polynomial(q, f"2*{text}")
        (path,) = p.terms
        assert path.length == 17 and p.coefficient(path) == 2.0
        assert format_polynomial(p) == f"(2+0j)*{text}"
        assert parse_polynomial(q, format_polynomial(p)) == p

    def test_zero_product_still_refuses_an_overflowing_coefficient(self):
        q = Quiver([[1, 1], [0, 1]])
        assert not parse_polynomial(q, "1e308*1<2:1*1<2:1").terms
        with pytest.raises(ValueError, match="must be finite"):
            parse_polynomial(q, "1e308*10*1<2:1*1<2:1")

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(60 + seed)
        q = random_quiver(rng, max_n=3, max_entry=2)
        p = random_polynomial(q, rng, max_degree=2, terms=5)
        back = parse_polynomial(q, format_polynomial(p))
        assert (p - back).coeff_norm() < 1e-12

    def test_parse_many_terms_within_budget(self):
        """The terms are summed into one map: 4,000 distinct terms parse in
        linear time, not one growing sum per term."""
        q = Quiver([[3, 2], [1, 2]])
        paths = enumerate_paths(q, 6)[:4000]
        text = " + ".join(f"{k + 1}*{format_path(p)}" for k, p in enumerate(paths))
        t0 = time.perf_counter()
        p = parse_polynomial(q, text)
        assert time.perf_counter() - t0 < 0.5
        assert p.terms == {path: k + 1 for k, path in enumerate(paths)}

    def test_str_and_repr_give_text_that_parses_back(self, q):
        p = parse_polynomial(q, "v1 + (0.5-2j)*1<1:1 - 1j*1<2:2*2<2:1")
        assert str(p) == format_polynomial(p) == "(1+0j)*v1 + (0.5-2j)*1<1:1 + (-1j)*1<2:2*2<2:1"
        assert repr(p) == f"PathPolynomial({str(p)!r})"
        assert parse_polynomial(q, str(p)) == p

    def test_format_zero(self, q):
        assert format_polynomial(PathPolynomial.zero(q)) == "0"
        assert not parse_polynomial(q, "0").terms
