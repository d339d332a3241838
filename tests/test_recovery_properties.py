"""Property tests of recovery (need hypothesis): invariance under vertex
relabelling, a certified witness for every presentation, one generator table
from either input of a presentation, and the table ``scramble`` fills equal
to its draws made block by block, and the same recovery from generators
scaled by one constant."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from quiveralg import (  # noqa: E402
    Quiver,
    ScrambledPresentation,
    apply_permutation,
    are_isomorphic,
    recover,
    scramble,
)
from helpers import (  # noqa: E402
    assert_rows_are_unitary_columns,
    generator_table,
    quivers,
    reference_scramble,
)


@st.composite
def relabelled_quivers(draw):
    q = draw(quivers(6, 2))
    return q, draw(st.permutations(range(q.n)))


@st.composite
def doubled_quivers(draw):
    """Two disjoint copies of a quiver: swapping them is an automorphism."""
    c = draw(quivers(3, 2)).c
    z = np.zeros_like(c)
    return Quiver(np.block([[c, z], [z, c]]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(relabelled_quivers(), st.integers(0, 2**32 - 1))
def test_recovery_is_invariant_under_relabelling(q_tau, seed):
    q, tau = q_tau
    hidden = apply_permutation(q, tau)
    s = scramble(hidden, seed)
    report = recover(s)
    recovered = Quiver(report.c_recovered)
    assert report.witness == tuple(np.argsort(s.hidden_truth.tau).tolist())
    assert apply_permutation(recovered, report.witness) == hidden
    assert are_isomorphic(recovered, q) is not None


@settings(max_examples=50, derandomize=True, deadline=None)
@given(doubled_quivers(), st.integers(0, 2**32 - 1))
def test_witness_is_tau_inverse_under_automorphisms(q, seed):
    """With automorphisms several witnesses exist; ``recover`` reports the
    labels' tau^-1, which the search need not return."""
    s = scramble(q, seed)
    report = recover(s)
    assert report.witness == tuple(np.argsort(s.hidden_truth.tau).tolist())
    assert apply_permutation(Quiver(report.c_recovered), report.witness) == q


@settings(max_examples=100, derandomize=True, deadline=None)
@given(quivers(6, 2), st.integers(0, 2**32 - 1))
def test_witness_certifies_every_presentation(q, seed):
    """The witness is the labels' tau^-1, certified by the counts matching
    the graph's blocks, so a presentation rebuilt without the withheld
    scramble data gets one too, and it carries the recovered matrix onto q."""
    s = scramble(q, seed)
    bare = ScrambledPresentation(s.idempotents, s.generators)
    assert bare.hidden_truth is None
    for presentation in (s, bare):
        report = recover(presentation)
        assert apply_permutation(Quiver(report.c_recovered), report.witness) == q


@settings(max_examples=100, derandomize=True, deadline=None)
@given(quivers(5, 3), st.integers(0, 2**32 - 1))
def test_polynomial_constructor_builds_the_scramble_table(q, seed):
    """``scramble`` writes its rows from the block unitaries; rebuilt through
    the public constructor from the same generators, read back as
    polynomials, the table is the same bit for bit, and so is the report."""
    s = scramble(q, seed)
    rebuilt = ScrambledPresentation(
        idempotents=s.idempotents, generators=s.generators, hidden_truth=s.hidden_truth
    )
    table, rebuilt_table = generator_table(s), generator_table(rebuilt)
    assert list(rebuilt_table) == list(table)
    for pair, (ks, vecs, rank) in table.items():
        ks2, vecs2, rank2 = rebuilt_table[pair]
        assert ks2.tolist() == ks.tolist() and rank2 == rank
        assert vecs2.dtype == vecs.dtype and vecs2.shape == vecs.shape
        assert vecs2.tobytes() == vecs.tobytes()
    assert rebuilt.generators == s.generators
    assert recover(rebuilt) == recover(s)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(quivers(6, 3), st.integers(0, 2**32 - 1))
def test_scramble_table_equals_per_block_draws(q, seed):
    """``scramble`` draws per block size and fills its table record by
    record; tau, each block's rows (the columns of its unitary, by generator
    index) and each generator's index and row equal ``reference_scramble``'s
    block-by-block draws bit for bit."""
    s = scramble(q, seed)
    tau, unitaries, generators = reference_scramble(q, seed)
    assert s.hidden_truth.tau == tau
    assert_rows_are_unitary_columns(s, tau, unitaries)
    seen = []
    for (a, b), (ks, rows, _) in generator_table(s).items():
        for k, row in zip(ks.tolist(), rows):
            paths, coeffs = zip(*generators[k])
            assert [(p.target, p.source, p.arrows[0].index) for p in paths] == [
                (tau[a], tau[b], m) for m in range(len(row))
            ]
            assert np.array(coeffs).tobytes() == row.tobytes()
            seen.append(k)
    assert sorted(seen) == list(range(len(generators)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quivers(5, 2), st.integers(0, 2**32 - 1), st.sampled_from([1e-200, 1e-12, 1e-9, 1e9, 1e200]))
def test_recovery_is_invariant_under_scaling(q, seed, scale):
    """Every generator times one nonzero constant spans the same algebra:
    the presentation rebuilt from them recovers the same matrix and
    witness."""
    s = scramble(q, seed)
    scaled = ScrambledPresentation(s.idempotents, [g * scale for g in s.generators], s.hidden_truth)
    report, want = recover(scaled), recover(s)
    assert (report.c_recovered, report.witness) == (want.c_recovered, want.witness)
