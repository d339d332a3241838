import collections
import time

import numpy as np
import pytest

from quiveralg import (
    Arrow,
    HiddenTruth,
    PathPolynomial,
    Quiver,
    ScrambledPresentation,
    apply_permutation,
    are_isomorphic,
    probe_character_dimension,
    probe_pair_dimension,
    recover,
    rho_eval,
    scramble,
)
from quiveralg import recovery
from quiveralg.recovery import RANK_TOL, RecoveryError, _pair_reps, _rep_rows
from helpers import random_quiver, reference_compressions, reference_rep_rows


def manual_presentation(q, tau):
    """Identity unitaries, explicit vertex relabelling, unshuffled order."""
    generators = tuple(
        PathPolynomial.arrow(q, a)
        for i in range(q.n)
        for j in range(q.n)
        for a in q.block(i, j)
    )
    idempotents = tuple(PathPolynomial.vertex(q, tau[a]) for a in range(q.n))
    return ScrambledPresentation(
        n=q.n,
        idempotents=idempotents,
        generators=generators,
        hidden_truth=HiddenTruth(quiver=q, tau=tuple(tau), unitaries={}),
    )


class TestScramble:
    def test_identity_scramble(self):
        q = Quiver([[1, 2], [0, 1]])
        s = scramble(q, seed=0, force_identity=True)
        assert s.hidden_truth.tau == (0, 1)
        expected = [
            PathPolynomial.arrow(q, a)
            for i in range(2)
            for j in range(2)
            for a in q.block(i, j)
        ]
        assert list(s.generators) == expected
        for block, u in s.hidden_truth.unitaries.items():
            assert np.array_equal(u, np.eye(u.shape[0]))

    def test_generator_count_and_block_supports(self):
        q = Quiver([[1, 2], [0, 1]])
        for seed in range(5):
            s = scramble(q, seed)
            assert len(s.generators) == 4
            tau = s.hidden_truth.tau
            # block supports form a vertex-relabelled copy of the matrix
            counts = {}
            for g in s.generators:
                (path, _), *rest = g.items()
                block = (path.target, path.source)
                assert all(
                    (p.target, p.source) == block for p, _ in g.items()
                )
                counts[block] = counts.get(block, 0) + 1
            for (i, j), how_many in counts.items():
                assert how_many == q.c[i][j]

    def test_deterministic_in_seed(self):
        q = Quiver([[2, 1], [1, 0]])
        s1, s2 = scramble(q, seed=42), scramble(q, seed=42)
        assert s1.hidden_truth.tau == s2.hidden_truth.tau
        assert len(s1.generators) == len(s2.generators)
        for g1, g2 in zip(s1.generators, s2.generators):
            assert g1 == g2
        s3 = scramble(q, seed=43)
        assert any(g1 != g3 for g1, g3 in zip(s1.generators, s3.generators))

    def test_unitaries_are_unitary(self):
        q = Quiver([[3, 2], [0, 2]])
        s = scramble(q, seed=11)
        for u in s.hidden_truth.unitaries.values():
            assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)

    def test_presentation_validation_rejects_non_spanning(self):
        q = Quiver([[2]])
        a = PathPolynomial.arrow(q, Arrow(0, 0, 0))
        with pytest.raises(ValueError, match="span"):
            ScrambledPresentation(
                n=1,
                idempotents=(PathPolynomial.vertex(q, 0),),
                generators=(a, a),  # rank 1, need 2
            )

    def test_presentation_validation_rejects_missing_block(self):
        q = Quiver([[1, 1], [0, 0]])
        gens = (PathPolynomial.arrow(q, Arrow(0, 0, 0)),)
        with pytest.raises(ValueError, match="no generators"):
            ScrambledPresentation(
                n=2,
                idempotents=(
                    PathPolynomial.vertex(q, 0),
                    PathPolynomial.vertex(q, 1),
                ),
                generators=gens,
            )


class TestProbes:
    def test_two_loops_identity(self):
        q = Quiver([[2]])
        s = scramble(q, seed=0, force_identity=True)
        assert probe_character_dimension(s, 0) == 2

    def test_diagonal_counts_on_reference_quiver(self):
        q = Quiver([[1, 2], [0, 1]])
        s = scramble(q, seed=3)
        dims = sorted(probe_character_dimension(s, a) for a in range(2))
        assert dims == [1, 1]

    def test_vertex_without_loops_probes_zero(self):
        q = Quiver([[0, 1], [0, 0]])
        s = scramble(q, seed=1)
        assert sorted(probe_character_dimension(s, a) for a in range(2)) == [0, 0]

    def test_pair_dimension_counts_block(self):
        q = Quiver([[1, 2], [0, 1]])
        s = scramble(q, seed=9)
        tau = s.hidden_truth.tau
        # find the label pair that lands on the (0, 1) block of the source
        a = tau.index(0)
        b = tau.index(1)
        assert probe_pair_dimension(s, a, b) == 2
        assert probe_pair_dimension(s, b, a) == 0

    def test_identity_scramble_pair_dimensions_equal_matrix(self):
        q = Quiver([[1, 2], [1, 1]])
        s = scramble(q, seed=0, force_identity=True)
        for a in range(2):
            for b in range(2):
                if a != b:
                    assert probe_pair_dimension(s, a, b) == q.c[a][b]

    def test_pair_probe_requires_distinct_labels(self):
        s = scramble(Quiver([[1]]), seed=0)
        with pytest.raises(ValueError, match="distinct"):
            probe_pair_dimension(s, 0, 0)

    def test_label_out_of_range(self):
        s = scramble(Quiver([[1]]), seed=0)
        with pytest.raises(ValueError, match="out of range"):
            probe_character_dimension(s, 3)


class TestCompressions:
    """The generators are labelled once per presentation; the table of
    compressions built from those labels must hold exactly the nonzero
    p_a * g * p_b computed pair by pair, in generator order."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("force_identity", [False, True])
    def test_equal_to_pairwise_products(self, seed, force_identity):
        rng = np.random.default_rng(500 + seed)
        q = random_quiver(rng, max_n=6, max_entry=2, min_n=2)
        s = scramble(q, seed=seed, force_identity=force_identity)
        for a in range(q.n):
            for b in range(q.n):
                block, _, ref_vecs = reference_compressions(s, a, b)
                nonzero = [ref for ref in ref_vecs if np.any(ref)]
                vecs = s._compressions.get((a, b), [])
                assert len(vecs) == len(nonzero)
                for vec, ref in zip(vecs, nonzero):
                    assert vec.dtype == ref.dtype and np.array_equal(vec, ref)
                # the probe counts are those of the pairwise compressions
                ref_rank = (
                    int(np.linalg.matrix_rank(np.array(nonzero), tol=RANK_TOL))
                    if nonzero
                    else 0
                )
                probe = (
                    probe_character_dimension(s, a)
                    if a == b
                    else probe_pair_dimension(s, a, b)
                )
                assert probe == ref_rank == q.c[block[0]][block[1]]

    def test_each_generator_is_labelled_once(self):
        q = Quiver([[1, 2, 0], [0, 1, 3], [1, 0, 0]])
        s = scramble(q, seed=4)
        tau = s.hidden_truth.tau
        counts = {pair: len(vecs) for pair, vecs in s._compressions.items()}
        assert sum(counts.values()) == len(s.generators) == q.total_arrows()
        assert all(
            counts.get((a, b), 0) == q.c[tau[a]][tau[b]]
            for a in range(q.n)
            for b in range(q.n)
        )

    def test_unlabelled_generator_raises_recovery_error(self):
        q = Quiver([[1, 1], [0, 1]])
        s = scramble(q, seed=2)
        s.generators = s.generators + (PathPolynomial.zero(q),)
        with pytest.raises(RecoveryError, match="generator 3"):
            probe_character_dimension(s, 0)


class TestBatchedRows:
    """The pair probe's representation rows come from one product per label
    pair; ``rho_eval`` on every (representation, generator) is the oracle."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("force_identity", [False, True])
    def test_equal_to_rho_eval(self, seed, force_identity):
        rng = np.random.default_rng(900 + seed)
        q = random_quiver(rng, max_n=6, max_entry=2, min_n=2)
        s = scramble(q, seed=seed, force_identity=force_identity)
        pairs = 0
        for a in range(q.n):
            for b in range(q.n):
                reps = _pair_reps(s, a, b) if a != b else []
                if not reps:
                    continue
                pairs += 1
                rows = _rep_rows(s, reps)
                ref = reference_rep_rows(s, reps)
                assert rows.shape == ref.shape == (len(reps), len(s.generators))
                assert np.max(np.abs(rows - ref)) <= 1e-15
        assert pairs == sum(
            1 for i in range(q.n) for j in range(q.n) if i != j and q.c[i][j]
        )

    @pytest.mark.parametrize("c", [[[1, 2, 0], [0, 1, 3], [1, 0, 0]], [[2]], [[1, 0], [0, 2]]])
    def test_rho_eval_once_per_nonempty_pair(self, c, monkeypatch):
        q = Quiver(c)
        s = scramble(q, seed=6)
        calls = collections.Counter()

        def counting(r, p):
            calls[(r.i, r.j)] += 1
            return rho_eval(r, p)

        monkeypatch.setattr(recovery, "rho_eval", counting)
        recover(s)
        nonempty = {(i, j) for i in range(q.n) for j in range(q.n) if i != j and q.c[i][j]}
        assert set(calls) == nonempty
        assert all(count == 1 for count in calls.values())

    def test_cross_check_gap_raises(self, monkeypatch):
        s = scramble(Quiver([[0, 2], [1, 0]]), seed=3)
        monkeypatch.setattr(
            recovery, "rho_eval", lambda r, p: rho_eval(r, p) + 1e-11 * np.eye(2, k=1)
        )
        with pytest.raises(RecoveryError, match="disagree with rho_eval"):
            recover(s)


class TestRecover:
    def test_identity_scramble_recovers_exactly(self):
        q = Quiver([[1, 2], [0, 1]])
        report = recover(scramble(q, seed=0, force_identity=True))
        assert report.c_recovered == q.c
        assert report.witness == (0, 1)

    def test_explicit_swap(self):
        q = Quiver([[1, 2], [0, 1]])
        report = recover(manual_presentation(q, (1, 0)))
        assert report.c_recovered == ((1, 0), (2, 1))
        assert report.witness == (1, 0)

    def test_recovered_matrix_matches_relabelled_source(self):
        q = Quiver([[2, 1, 0], [0, 1, 1], [1, 0, 0]])
        for seed in range(4):
            s = scramble(q, seed)
            tau = s.hidden_truth.tau
            report = recover(s)
            c = report.c_recovered
            for a in range(3):
                for b in range(3):
                    assert c[a][b] == q.c[tau[a]][tau[b]]
            assert report.witness is not None

    def test_diagonal_consistency_with_hidden_truth(self):
        q = Quiver([[2, 0], [1, 1]])
        s = scramble(q, seed=21)
        tau = s.hidden_truth.tau
        report = recover(s)
        for a in range(2):
            assert report.c_recovered[a][a] == q.c[tau[a]][tau[a]]

    def test_probe_evidence_agrees_entrywise(self):
        q = Quiver([[1, 2], [2, 1]])
        report = recover(scramble(q, seed=33))
        for ev in report.evidence:
            if ev.a != ev.b:
                assert ev.span_dim == ev.rep_dim

    @pytest.mark.parametrize("seed", range(6))
    def test_seed_invariance_up_to_relabelling(self, seed):
        rng = np.random.default_rng(seed)
        q = random_quiver(rng, max_n=3, max_entry=2)
        r1 = recover(scramble(q, seed=2 * seed))
        r2 = recover(scramble(q, seed=2 * seed + 1))
        assert are_isomorphic(Quiver(r1.c_recovered), Quiver(r2.c_recovered)) is not None

    def test_non_isomorphic_pairs_have_no_witness(self):
        pairs = [
            (Quiver([[2]]), Quiver([[3]])),
            (Quiver([[1, 2], [0, 1]]), Quiver([[1, 1], [1, 1]])),
            (Quiver([[0, 1], [1, 0]]), Quiver([[2, 0], [0, 0]])),
        ]
        for q1, q2 in pairs:
            assert are_isomorphic(q1, q2) is None
            report = recover(scramble(q1, seed=5))
            assert are_isomorphic(Quiver(report.c_recovered), q2) is None

    def test_end_to_end_roundtrip_matches_permuted_copy(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            q = random_quiver(rng, max_n=3, max_entry=2)
            s = scramble(q, seed=int(rng.integers(0, 1000)))
            report = recover(s)
            witness = report.witness
            assert witness is not None
            assert apply_permutation(Quiver(report.c_recovered), witness) == q


def test_thirty_vertices_within_budget():
    """Scrambling and recovering a random 0/1/2 graph on 30 vertices (about
    900 generators) takes well under a second."""
    rng = np.random.default_rng(1)
    q = Quiver(rng.integers(0, 3, size=(30, 30)).tolist())
    t0 = time.perf_counter()
    report = recover(scramble(q, seed=1))
    elapsed = time.perf_counter() - t0
    assert report.witness is not None
    assert elapsed < 1.0
