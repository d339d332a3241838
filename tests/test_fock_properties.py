"""Property tests of the basis-arrow shift norms against one creation
operator per arrow, and of the stacked checks verify makes against their
one-element routes (need hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from quiveralg import (  # noqa: E402
    CorrespondenceElement,
    FockSpace,
    check_isometric_covariance,
    creation_operator,
    element_norm,
    operator_norm,
)
from quiveralg.correspondence import _module_norms, _random_rows  # noqa: E402
from quiveralg.fock import _arrow_shift_norms, _covariance_deviations, _shift_norms  # noqa: E402
from helpers import quivers, reference_arrow_inner_product  # noqa: E402


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(3, 2), st.integers(0, 4))
def test_arrow_shift_norms_match_one_operator_per_arrow(q, depth):
    space = FockSpace(q, depth)
    norms = _arrow_shift_norms(space)
    assert norms.shape == (q.total_arrows(),)
    for k, a in enumerate(q.arrows()):
        xi = CorrespondenceElement.basis(q, a)
        assert element_norm(xi) == 1.0
        assert norms[k] == operator_norm(creation_operator(space, xi))
    if depth == 0:
        assert not np.any(norms)


def reference_covariance_deviation(space, xi, eta):
    """The covariance deviation of one pair, by one bincount over the path
    tree per part and one vdot per vertex, each deviation's modulus squared."""
    x, y = xi.vector[space.last_arrow], eta.vector[space.last_arrow]
    gram_re = np.bincount(space.parent, x.real * y.real + x.imag * y.imag, minlength=space.dim)
    gram_im = np.bincount(space.parent, x.real * y.imag - x.imag * y.real, minlength=space.dim)
    rhs = reference_arrow_inner_product(xi, eta)[space.targets]
    inner = space.lengths <= space.depth - 1
    dev = np.empty(np.count_nonzero(inner), dtype=complex)
    dev.real = gram_re[inner] - rhs.real[inner]
    dev.imag = gram_im[inner] - rhs.imag[inner]
    return float(np.sqrt(np.max(np.abs(dev) ** 2)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(3, 2), st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_stacked_checks_equal_one_element_routes(q, depth, seed, m):
    space = FockSpace(q, depth)
    xs, ys = _random_rows(q, np.random.default_rng(seed), 2 * m).reshape(2, m, -1)
    deviations = _covariance_deviations(space, xs, ys)
    norms = _shift_norms(space, xs[:, space.last_arrow])
    module_norms = _module_norms(q, xs)
    assert deviations.shape == norms.shape == module_norms.shape == (m,)
    for k in range(m):
        xi, eta = CorrespondenceElement(q, xs[k]), CorrespondenceElement(q, ys[k])
        # ==, not approx: verify's reports must not move in the last bit
        assert deviations[k] == check_isometric_covariance(space, xi, eta)
        assert deviations[k] == reference_covariance_deviation(space, xi, eta)
        assert norms[k] == operator_norm(creation_operator(space, xi))
        assert module_norms[k] == element_norm(xi)
