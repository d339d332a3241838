import json
import time

import numpy as np
import pytest

from quiveralg import (
    Arrow,
    CorrespondenceElement,
    FockSpace,
    Quiver,
    diag_operator,
    element_from_wire,
    element_norm,
    element_to_wire,
    enumerate_paths,
    inner_product,
    left_action,
    right_action,
)
from helpers import random_element, random_quiver


@pytest.fixture
def q22():
    return Quiver([[2, 1], [0, 1]])


class TestConstruction:
    def test_block_shapes_enforced(self, q22):
        with pytest.raises(ValueError, match="dimension"):
            CorrespondenceElement(q22, np.ones(5))

    @pytest.mark.parametrize(
        "vector, message",
        [
            ([np.nan, 0, 0, 0], "coefficients must be finite"),
            ([0, np.inf, 0, 0], "coefficients must be finite"),
            ([0, 0, 0, complex(1, -np.inf)], "coefficients must be finite"),
            ([[1, 2], [3, 4]], "an element must be a 1-D vector, got shape (2, 2)"),
            (1.0, "an element must be a 1-D vector, got shape ()"),
            # a wrong length is named first, whatever the entries
            ([np.nan, 0, 0], "an element must have dimension 4 (one coefficient per arrow), got 3"),
        ],
        ids=["nan", "inf", "imaginary_inf", "matrix", "scalar", "short_with_nan"],
    )
    def test_refuses_non_finite_or_non_vector_input(self, q22, vector, message):
        with pytest.raises(ValueError) as info:
            CorrespondenceElement(q22, vector)
        assert str(info.value) == message

    def test_arithmetic_that_overflows_is_refused(self, q22):
        # numpy's overflow warning is silenced, so the refusal is what remains
        xi = CorrespondenceElement(q22, [1e308, 0, 0, 0])
        for overflow in (lambda: xi + xi, lambda: xi - (-xi), lambda: 10 * xi):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="^coefficients must be finite$"):
                overflow()

    def test_empty_blocks_are_zero_dimensional(self, q22):
        xi = CorrespondenceElement.zeros(q22)
        assert xi.block(1, 0).shape == (0,)

    def test_basis_element(self, q22):
        a = Arrow(1, 0, 0)
        xi = CorrespondenceElement.basis(q22, a)
        assert xi.component(a) == 1.0
        assert np.all(xi.block(0, 0) == 0)

    def test_repr_counts_the_nonzero_coefficients(self, q22):
        xi = CorrespondenceElement.basis(q22, Arrow(0, 0, 0))
        assert repr(xi) == "<CorrespondenceElement over n=2, 1 nonzero coefficients>"

    def test_basis_rejects_foreign_arrow(self, q22):
        with pytest.raises(ValueError):
            CorrespondenceElement.basis(q22, Arrow(0, 1, 0))

    @pytest.mark.parametrize("a", [Arrow(0, 1, 0), Arrow(0, 0, 2), Arrow(0, 0, -1)])
    def test_component_rejects_foreign_arrow(self, q22, a):
        # an index past the block would read the next block's coefficient
        xi = CorrespondenceElement.zeros(q22).with_block(0, 0, [1, 2])
        with pytest.raises(ValueError, match="not an arrow"):
            xi.component(a)


    @pytest.mark.parametrize(
        "build",
        [
            CorrespondenceElement.zeros,
            lambda q: CorrespondenceElement.random(q, np.random.default_rng(0)),
            lambda q: CorrespondenceElement.basis(q, Arrow(0, 0, 0)),
            lambda q: element_from_wire(q, []),
        ],
        ids=["zeros", "random", "basis", "from_wire"],
    )
    def test_oversized_quiver_refused_before_allocation(self, build):
        # 10^15 loops: the zero vector alone would be 14 PiB
        with pytest.raises(ValueError, match="size limit exceeded"):
            build(Quiver([[10**15, 1], [0, 0]]))

    def test_random_complete_200_within_budget(self):
        # 40,000 one-arrow blocks, drawn with no per-block position lookup
        q = Quiver([[1] * 200] * 200)
        t0 = time.perf_counter()
        xi = CorrespondenceElement.random(q, np.random.default_rng(0))
        assert time.perf_counter() - t0 < 1.0
        assert xi.vector.shape == (40000,) and np.count_nonzero(xi.vector) == 40000


class TestInnerProduct:
    def test_unit_vector(self):
        q = Quiver([[2, 0], [0, 0]])
        xi = CorrespondenceElement.zeros(q).with_block(0, 0, [3 / 5, 4 / 5])
        d = inner_product(xi, xi)
        assert np.allclose(d, [1.0, 0.0])

    def test_orthogonality(self):
        q = Quiver([[2]])
        xi = CorrespondenceElement.zeros(q).with_block(0, 0, [1, 0])
        eta = CorrespondenceElement.zeros(q).with_block(0, 0, [0, 1])
        assert np.allclose(inner_product(xi, eta), 0.0)

    def test_two_block_witness_is_diagonal_of_ones(self, q22):
        # xi_ii and xi_ij normalized: the product has entry 1 at both columns
        rng = np.random.default_rng(0)
        lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        gam = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        xi = (
            CorrespondenceElement.zeros(q22)
            .with_block(0, 0, lam / np.linalg.norm(lam))
            .with_block(0, 1, gam / np.linalg.norm(gam))
        )
        d = inner_product(xi, xi)
        assert np.allclose(d, [1.0, 1.0], atol=1e-12)
        assert element_norm(xi) == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_linear_in_first_slot(self):
        q = Quiver([[1]])
        xi = CorrespondenceElement.zeros(q).with_block(0, 0, [2j])
        eta = CorrespondenceElement.zeros(q).with_block(0, 0, [3.0])
        assert inner_product(xi, eta)[0] == pytest.approx(-6j)
        assert inner_product(eta, xi)[0] == pytest.approx(6j)

    def test_shape_mismatch(self, q22):
        xi, other = CorrespondenceElement.zeros(q22), CorrespondenceElement.zeros(Quiver([[2]]))
        for mixed in (lambda: inner_product(xi, other), lambda: xi + other, lambda: xi - other):
            with pytest.raises(ValueError, match="^elements live over different quivers$"):
                mixed()

    @pytest.mark.parametrize("seed", range(6))
    def test_positivity(self, seed):
        rng = np.random.default_rng(seed)
        q = random_quiver(rng, max_n=3, max_entry=3)
        xi = random_element(q, rng)
        d = inner_product(xi, xi)
        assert np.all(d.real >= 0)
        assert np.allclose(d.imag, 0.0)
        zero = CorrespondenceElement.zeros(q)
        assert np.all(inner_product(zero, zero) == 0)
        if any(q.c[i][j] for i in range(q.n) for j in range(q.n)):
            assert np.any(inner_product(xi, xi).real > 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_cauchy_schwarz_per_column(self, seed):
        rng = np.random.default_rng(100 + seed)
        q = random_quiver(rng, max_n=3, max_entry=3)
        xi, eta = random_element(q, rng), random_element(q, rng)
        pairing = inner_product(xi, eta)
        nx = np.sqrt(inner_product(xi, xi).real)
        ne = np.sqrt(inner_product(eta, eta).real)
        assert np.all(np.abs(pairing) <= nx * ne + 1e-12)


class TestActions:
    def test_left_identity(self, q22):
        rng = np.random.default_rng(1)
        xi = random_element(q22, rng)
        out = left_action(np.ones(2), xi)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(out.block(i, j), xi.block(i, j))

    def test_left_idempotent_selects_rows(self, q22):
        rng = np.random.default_rng(2)
        xi = random_element(q22, rng)
        out = left_action(np.eye(2)[1], xi)
        assert np.all(out.block(0, 0) == 0)
        assert np.all(out.block(0, 1) == 0)
        assert np.array_equal(out.block(1, 1), xi.block(1, 1))

    def test_left_row_scaling(self):
        q = Quiver([[0, 1], [0, 0]])
        xi = CorrespondenceElement.zeros(q).with_block(0, 1, [1.0])
        out = left_action(np.array([2.0, 3.0]), xi)
        assert out.block(0, 1)[0] == 2.0

    def test_right_identity(self, q22):
        rng = np.random.default_rng(3)
        xi = random_element(q22, rng)
        out = right_action(xi, np.ones(2))
        assert np.array_equal(out.block(0, 1), xi.block(0, 1))

    def test_right_idempotent_selects_columns(self, q22):
        rng = np.random.default_rng(4)
        xi = random_element(q22, rng)
        out = right_action(xi, np.eye(2)[1])
        assert np.all(out.block(0, 0) == 0)
        assert np.array_equal(out.block(0, 1), xi.block(0, 1))
        assert np.array_equal(out.block(1, 1), xi.block(1, 1))

    def test_right_column_scaling(self):
        q = Quiver([[0, 1], [0, 0]])
        xi = CorrespondenceElement.zeros(q).with_block(0, 1, [1.0])
        out = right_action(xi, np.array([2.0, 3.0]))
        assert out.block(0, 1)[0] == 3.0

    @pytest.mark.parametrize("seed", range(6))
    def test_module_identities(self, seed):
        # <xi, eta.D> = <xi, eta>.D  and  <xi, phi(D) eta> = <phi(conj D) xi, eta>
        rng = np.random.default_rng(200 + seed)
        q = random_quiver(rng, max_n=3, max_entry=3)
        xi, eta = random_element(q, rng), random_element(q, rng)
        d = rng.standard_normal(q.n) + 1j * rng.standard_normal(q.n)
        lhs = inner_product(xi, right_action(eta, d))
        rhs = inner_product(xi, eta) * d
        assert np.allclose(lhs, rhs, atol=1e-12)
        lhs2 = inner_product(xi, left_action(d, eta))
        rhs2 = inner_product(left_action(np.conj(d), xi), eta)
        assert np.allclose(lhs2, rhs2, atol=1e-12)
        # sums, differences and negatives act coefficient by coefficient
        assert np.array_equal((xi + eta).vector, xi.vector + eta.vector)
        assert np.array_equal((xi - eta).vector, xi.vector - eta.vector)
        assert np.array_equal((-xi).vector, -xi.vector)


@pytest.mark.parametrize("bad", [np.ones(3), np.ones((1, 2))], ids=["length_3", "2d"])
@pytest.mark.parametrize(
    "apply",
    [
        lambda q, d: left_action(d, CorrespondenceElement.zeros(q)),
        lambda q, d: right_action(CorrespondenceElement.zeros(q), d),
        lambda q, d: diag_operator(FockSpace(q, 1), d),
    ],
    ids=["left_action", "right_action", "diag_operator"],
)
def test_diagonal_of_wrong_shape_refused(q22, apply, bad):
    with pytest.raises(ValueError, match="diagonal size does not match the quiver"):
        apply(q22, bad)


class TestElementNorm:
    def test_basis_arrow(self, q22):
        xi = CorrespondenceElement.basis(q22, Arrow(1, 0, 0))
        assert element_norm(xi) == 1.0

    def test_column_maximum(self):
        # columns have norms 3 and 4; the module norm takes the larger
        q = Quiver([[1, 1], [0, 0]])
        xi = (
            CorrespondenceElement.zeros(q)
            .with_block(0, 0, [3.0])
            .with_block(0, 1, [4.0])
        )
        assert element_norm(xi) == pytest.approx(4.0)

    def test_zero(self, q22):
        assert element_norm(CorrespondenceElement.zeros(q22)) == 0.0


class TestTensorPowerBasis:
    """The length-k paths, the orthonormal basis of the k-th tensor power,
    form the last block of ``enumerate_paths(q, k)``."""

    @pytest.mark.parametrize("k", range(4))
    def test_matches_filtered_enumeration(self, k, q22):
        size = int(np.linalg.matrix_power(q22.matrix(), k).sum())
        paths = enumerate_paths(q22, k)
        assert [p for p in paths if p.length == k] == paths[len(paths) - size :]

    def test_zeroth_power_is_vertices(self, q22):
        basis = enumerate_paths(q22, 0)
        assert [p.base for p in basis] == [0, 1]

    def test_rejects_negative(self, q22):
        with pytest.raises(ValueError):
            enumerate_paths(q22, -1)


class TestWireFormat:
    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(300 + seed)
        q = random_quiver(rng, max_n=3, max_entry=3)
        xi = random_element(q, rng)
        records = element_to_wire(xi)
        back = element_from_wire(q, records)
        for i in range(q.n):
            for j in range(q.n):
                assert np.allclose(back.block(i, j), xi.block(i, j))

    def test_wire_is_one_based_and_skips_empty_blocks(self):
        q = Quiver([[0, 1], [0, 0]])
        xi = CorrespondenceElement.zeros(q).with_block(0, 1, [1 + 2j])
        records = element_to_wire(xi)
        assert records == [{"to": 1, "from": 2, "vector": [[1.0, 2.0]]}]

    def test_from_wire_rejects_bad_dimension(self):
        q = Quiver([[2]])
        with pytest.raises(ValueError, match="dimension"):
            element_from_wire(q, [{"to": 1, "from": 1, "vector": [[1.0, 0.0]]}])

    @pytest.mark.parametrize("text", ["[[NaN, 0]]", "[[0, Infinity]]", "[[-Infinity, 1]]"])
    def test_from_wire_rejects_non_finite_entries(self, text):
        records = [{"to": 1, "from": 1, "vector": json.loads(text)}]
        with pytest.raises(ValueError, match="finite"):
            element_from_wire(Quiver([[1]]), records)

    @pytest.mark.parametrize(
        "vector",
        [[["a", 0]], [[None, 0]], [[1.0]], [[1, 2, 3]], [1.0], 5, [[10**400, 0]],
         [[True, False]], [[0.5, False]]],
    )
    def test_from_wire_rejects_non_numeric_entries(self, vector):
        with pytest.raises(ValueError, match="number pairs"):
            element_from_wire(Quiver([[1]]), [{"to": 1, "from": 1, "vector": vector}])

    @pytest.mark.parametrize(
        "record, match",
        [
            ({"to": 1, "from": 1}, " must have the fields to/from/vector"),
            ({"to": 1, "from": 1, "vector": [], "extra": 0}, " must have the fields to/from/vector"),
            ([1, 1, []], " must have the fields to/from/vector"),
            ({"to": 1.0, "from": 1, "vector": []}, ": 'to' must be an integer"),
            ({"to": 1, "from": True, "vector": []}, ": 'from' must be an integer"),
            ({"to": 0, "from": 1, "vector": []}, ": vertex out of range"),
            ({"to": 1, "from": 3, "vector": []}, ": vertex out of range"),
        ],
    )
    def test_from_wire_rejects_bad_record(self, record, match):
        with pytest.raises(ValueError, match=f"^block record 0{match}$"):
            element_from_wire(Quiver([[1, 0], [0, 0]]), [record])

    def test_from_wire_rejects_duplicates(self):
        q = Quiver([[1]])
        rec = {"to": 1, "from": 1, "vector": [[1.0, 0.0]]}
        with pytest.raises(ValueError, match="duplicate"):
            element_from_wire(q, [rec, rec])
