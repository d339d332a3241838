"""Property tests of the basis-arrow shift norms against one creation
operator per arrow (need hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from quiveralg import CorrespondenceElement, FockSpace, creation_operator, element_norm, operator_norm  # noqa: E402
from quiveralg.fock import _arrow_shift_norms  # noqa: E402
from helpers import quivers  # noqa: E402


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
