"""Property tests of polynomial multiplication (need hypothesis).

Coefficients are dyadic, (a + b*i) / 8 with small integers a and b, so every
product and sum below is exact in double precision and the laws are asserted
with literal equality.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from quiveralg import PathPolynomial, Quiver, enumerate_paths, vertex_path  # noqa: E402
from helpers import reference_product  # noqa: E402

dyadic = st.builds(lambda re, im: complex(re, im) / 8, st.integers(-8, 8), st.integers(-8, 8))


@st.composite
def quivers(draw):
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    return Quiver(draw(st.lists(row, min_size=n, max_size=n)))


def vertex_monomials(q):
    return st.builds(
        lambda v, z: PathPolynomial.monomial(q, vertex_path(v), z),
        st.integers(0, q.n - 1),
        dyadic.filter(lambda z: z != 0),
    )


def polynomials(q, max_len=2):
    paths = enumerate_paths(q, max_len)
    terms = st.dictionaries(st.sampled_from(paths), dyadic, max_size=5)
    return st.builds(lambda t: PathPolynomial(q, t), terms)


def factors(q):
    """Polynomials of length <= 2, vertex monomials, and the unit."""
    return st.one_of(polynomials(q), vertex_monomials(q), st.just(PathPolynomial.unit(q)))


@st.composite
def factor_triples(draw):
    q = draw(quivers())
    return tuple(draw(factors(q)) for _ in range(3))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(factor_triples())
def test_associative_on_dyadic_coefficients(triple):
    p, r, s = triple
    assert (p * r) * s == p * (r * s)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(factor_triples())
def test_products_equal_the_double_loop(triple):
    """Vertex factors take the term filter; every product, vertex factor or
    not, equals the double loop exactly and keeps its term order."""
    for p, r in [triple[:2], triple[1:], (triple[0], triple[2])]:
        got, want = p * r, reference_product(p, r)
        assert got == want
        assert list(got.terms) == list(want.terms)


@st.composite
def vertex_and_polynomial(draw):
    q = draw(quivers())
    return draw(vertex_monomials(q)), draw(polynomials(q, max_len=3))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(vertex_and_polynomial())
def test_vertex_factor_filters_on_target_and_source(pair):
    e, p = pair
    ((path, z),) = e.terms.items()
    v = path.base
    for got, keep in [(e * p, lambda t: t.target == v), (p * e, lambda t: t.source == v)]:
        want = {t: z * c for t, c in p.terms.items() if keep(t) and z * c != 0}
        assert got.terms == want
        assert list(got.terms) == list(want)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(vertex_and_polynomial(), st.integers(0, 1))
def test_foreign_quiver_factor_raises(pair, other_vertex):
    e, p = pair
    foreign = PathPolynomial.vertex(Quiver([[3, 0], [0, 3]]), other_vertex)
    for x, y in [(foreign, p), (p, foreign), (foreign, e), (e, foreign)]:
        with pytest.raises(ValueError, match="different quivers"):
            x * y
