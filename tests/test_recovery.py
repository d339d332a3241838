import ast
import collections
import inspect
import json
import time
import warnings

import numpy as np
import pytest

from quiveralg import (
    Arrow,
    CorrespondenceElement,
    HiddenTruth,
    PathPolynomial,
    Quiver,
    ScrambledPresentation,
    TwoDimRep,
    apply_permutation,
    are_isomorphic,
    inner_product,
    probe_character_dimension,
    probe_pair_dimension,
    quiver_to_dict,
    recover,
    rho_eval,
    scramble,
)
from quiveralg import quiver, recovery
from quiveralg.cli import main
from quiveralg.quiver import ISO_VERTEX_LIMIT
from quiveralg.recovery import (
    RANK_TOL,
    ProbeMismatchError,
    RecoveryError,
    _rep_rows,
)
from helpers import (
    assert_rows_are_unitary_columns,
    generator_table,
    random_quiver,
    reference_compressions,
    reference_rep_rows,
    reference_scramble,
    single_pair_probes,
)


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
        idempotents=idempotents,
        generators=generators,
        hidden_truth=HiddenTruth(tau=tuple(tau)),
    )


class TestScramble:
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
        # each block's rows are the columns of its unitary: V V* = I
        q = Quiver([[3, 2], [0, 2]])
        s = scramble(q, seed=11)
        table = generator_table(s)
        assert len(table) == 3
        for _, vecs, _ in table.values():
            assert np.allclose(vecs @ vecs.conj().T, np.eye(vecs.shape[0]), atol=1e-12)

    def test_presentation_validation_rejects_non_spanning(self):
        # the constructor compares nothing with the graph; the rank 1 count
        # of a block of 2 arrows is refused by recover's one comparison
        q = Quiver([[2]])
        a = PathPolynomial.arrow(q, Arrow(0, 0, 0))
        s = ScrambledPresentation(
            idempotents=(PathPolynomial.vertex(q, 0),),
            generators=(a, a),  # rank 1, need 2
        )
        with pytest.raises(RecoveryError, match="not a vertex relabelling"):
            recover(s)

    def test_presentation_validation_rejects_non_finite_coefficients(self):
        q = Quiver([[2]])
        a, b = (PathPolynomial.arrow(q, Arrow(0, 0, k)) for k in range(2))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ScrambledPresentation(
                    idempotents=(PathPolynomial.vertex(q, 0),),
                    generators=(a, b + bad * a),
                )

    def test_size_limit_is_inclusive(self, monkeypatch):
        # the unitaries of [[2, 1], [1, 1]] hold 4 + 1 + 1 + 1 = 7 entries
        monkeypatch.setattr(recovery, "SCRAMBLE_LIMIT", 7)
        assert len(scramble(Quiver([[2, 1], [1, 1]]), seed=0).generators) == 5
        with pytest.raises(ValueError, match="size limit exceeded"):
            scramble(Quiver([[2, 1], [1, 2]]), seed=0)

    def test_size_limit_is_exact_past_int64_squares(self, monkeypatch):
        # 2**32 arrows in one block: its square, 2**64, is 0 in int64
        def no_draw(*args, **kwargs):
            raise AssertionError("a unitary was drawn")

        monkeypatch.setattr(recovery, "_haar_unitaries", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=f"size limit exceeded: refusing to scramble {2**64} > "):
            scramble(Quiver([[2**32]]), seed=0)

    @pytest.mark.parametrize(
        "case, match",
        [
            ("no_labels", "at least one idempotent label"),
            ("too_few_labels", "does not match the vertex count"),
            ("duplicate_label", "duplicate idempotent label"),
            ("scaled_idempotent", "single vertex monomials"),
            ("other_quiver", "different quiver"),
            ("idempotent_other_quiver", "different quiver"),
            ("two_blocks", "supported on a single block"),
        ],
    )
    def test_presentation_validation_refusals(self, case, match):
        q = Quiver([[1, 1], [0, 1]])
        p0, p1 = PathPolynomial.vertex(q, 0), PathPolynomial.vertex(q, 1)
        gens = tuple(
            PathPolynomial.arrow(q, a) for i in range(2) for j in range(2) for a in q.block(i, j)
        )
        other = Quiver([[1, 1], [1, 1]])
        idempotents, generators = {
            "no_labels": ((), ()),
            "too_few_labels": ((p0,), gens),
            "duplicate_label": ((p0, p0), gens),
            "scaled_idempotent": ((p0, 2 * p1), gens),
            "other_quiver": ((p0, p1), gens[:-1] + (PathPolynomial.arrow(other, Arrow(0, 1, 0)),)),
            # with no generators, only the idempotents carry a quiver
            "idempotent_other_quiver": ((PathPolynomial.vertex(Quiver([[0, 0], [0, 0]]), 0), p1), ()),
            "two_blocks": ((p0, p1), gens[:-1] + (gens[0] + gens[1],)),
        }[case]
        with pytest.raises(ValueError, match=match):
            ScrambledPresentation(idempotents=idempotents, generators=generators)

    def test_presentation_validation_rejects_missing_block(self):
        # a nonempty block without generators counts 0, which recover's one
        # comparison refuses
        q = Quiver([[1, 1], [0, 0]])
        gens = (PathPolynomial.arrow(q, Arrow(0, 0, 0)),)
        s = ScrambledPresentation(
            idempotents=(
                PathPolynomial.vertex(q, 0),
                PathPolynomial.vertex(q, 1),
            ),
            generators=gens,
        )
        with pytest.raises(RecoveryError, match="not a vertex relabelling"):
            recover(s)


class TestProbes:
    def test_two_loops_identity(self):
        q = Quiver([[2]])
        s = manual_presentation(q, range(q.n))
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
        s = manual_presentation(q, range(q.n))
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
    """The generators are labelled once per presentation, from the
    idempotents' vertices; the generator table built from those labels must
    hold exactly the generators with a nonzero p_a * g * p_b, computed pair
    by pair, and those compressions, in generator order.
    ``force_identity`` selects the unscrambled presentation."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("force_identity", [False, True])
    def test_equal_to_pairwise_products(self, seed, force_identity):
        rng = np.random.default_rng(500 + seed)
        # seeds 8 and up draw graphs on 7 to 12 vertices
        min_n, max_n = (2, 6) if seed < 8 else (7, 12)
        q = random_quiver(rng, max_n=max_n, max_entry=2, min_n=min_n)
        s = manual_presentation(q, range(q.n)) if force_identity else scramble(q, seed=seed)
        table = generator_table(s)
        for a in range(q.n):
            for b in range(q.n):
                block, _, ref_vecs = reference_compressions(s, a, b)
                nonzero = [ref for ref in ref_vecs if np.any(ref)]
                gens, vecs, _ = table.get((a, b), ((), (), 0))
                assert list(gens) == [k for k, ref in enumerate(ref_vecs) if np.any(ref)]
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
        counts = {pair: len(gens) for pair, (gens, _, _) in generator_table(s).items()}
        assert sum(counts.values()) == len(s.generators) == q.total_arrows()
        assert all(
            counts.get((a, b), 0) == q.c[tau[a]][tau[b]]
            for a in range(q.n)
            for b in range(q.n)
        )

    def test_two_products_per_presentation(self, monkeypatch):
        # the labels are read off the idempotents and the rows are checked as
        # vectors; the only products are the cross-check p_a * g * p_b == g
        # on one generator, for either input of the presentation
        q = Quiver([[1, 2, 0, 1], [0, 1, 3, 0], [1, 0, 0, 2], [2, 1, 0, 1]])
        calls = []
        mul = PathPolynomial.__mul__
        monkeypatch.setattr(PathPolynomial, "__mul__", lambda x, y: (calls.append(y), mul(x, y))[1])
        s = scramble(q, seed=4)
        assert len(calls) == 2 and calls[0] is not calls[1]
        calls.clear()
        ScrambledPresentation(idempotents=s.idempotents, generators=s.generators)
        assert len(calls) == 2 and len(s.generators) == q.total_arrows()

    def test_two_norms_per_row_shape(self, monkeypatch):
        # one to normalize the rows, one for the squared norms the family
        # test reads, whatever the number of pairs stacked or their row
        # count; the omitted lam_i is the zero vector, whose norm is known
        q = Quiver([[1, 2, 0, 1], [0, 1, 3, 0], [1, 0, 0, 2], [2, 1, 0, 1]])
        s = scramble(q, seed=4)
        by_shape = collections.defaultdict(list)
        for (a, b), (_, vecs, _) in generator_table(s).items():
            if a != b:
                by_shape[vecs.shape].append(vecs)
        assert len(by_shape) == 3 and max(map(len, by_shape.values())) > 1
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: (calls.append(a), norm(*a, **k))[1])
        for (d, _), stack in by_shape.items():
            for vecs in (stack[0], np.stack(stack)):
                calls.clear()
                assert _rep_rows(vecs).shape == vecs.shape[:-1] + (d,)
                assert len(calls) == 2

    def test_failed_cross_check_raises(self, monkeypatch):
        q = Quiver([[1, 1], [0, 1]])
        monkeypatch.setattr(PathPolynomial, "__mul__", lambda x, y: PathPolynomial.zero(x.quiver))
        with pytest.raises(RecoveryError, match="not fixed by the idempotents"):
            scramble(q, seed=2)

    def test_zero_generator_is_refused_at_construction(self):
        # every generator is labelled when the presentation is built, so one
        # that no label pair compresses is refused there
        q = Quiver([[1, 1], [0, 1]])
        s = scramble(q, seed=2)
        with pytest.raises(ValueError, match="homogeneous of degree 1"):
            ScrambledPresentation(
                idempotents=s.idempotents,
                generators=s.generators + (PathPolynomial.zero(q),),
            )


def zeroed_rho_eval(r, p):
    """``rho_eval`` with the upper-right entry zeroed."""
    m = rho_eval(r, p)
    m[0, 1] = 0
    return m


def zeroed_rep_rows(vecs):
    """``_rep_rows`` with every entry zeroed."""
    return 0 * _rep_rows(vecs)


def pair_reps(s, a, b):
    """One representation per generator labelled (a, b): zero diagonal data
    and gamma its normalized row."""
    i, j = s._vertex[a], s._vertex[b]
    vecs = generator_table(s).get((a, b), ((), (), 0))[1]
    return [TwoDimRep(s.quiver, i, j, gamma=vec / np.linalg.norm(vec)) for vec in vecs]


class TestBatchedRows:
    """The pair probe's representation rows: conj(Gamma) @ V.T, with V the
    coefficient rows of the generators labelled with the pair and Gamma those
    rows normalized.  ``rho_eval`` of each representation on every generator
    is the oracle, so the comparison pins the batched product, the choice of
    the pair's columns and that every other column is zero.
    ``force_identity`` selects the unscrambled presentation."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("force_identity", [False, True])
    def test_equal_to_rho_eval(self, seed, force_identity):
        rng = np.random.default_rng(900 + seed)
        q = random_quiver(rng, max_n=6, max_entry=2, min_n=2)
        s = manual_presentation(q, range(q.n)) if force_identity else scramble(q, seed=seed)
        pairs, table = 0, generator_table(s)
        for a in range(q.n):
            for b in range(q.n):
                reps = pair_reps(s, a, b) if a != b else []
                if not reps:
                    continue
                pairs += 1
                gens = table[(a, b)][0]
                others = np.setdiff1d(np.arange(len(s.generators)), gens)
                rows = _rep_rows(table[(a, b)][1])
                ref = reference_rep_rows(s, reps)
                assert rows.shape == (len(reps), len(gens)) == (len(reps), len(reps))
                assert np.max(np.abs(rows - ref[:, gens])) <= 1e-15
                # the dropped columns: every other generator evaluates to 0
                assert not np.any(ref[:, others])
        assert pairs == sum(
            1 for i in range(q.n) for j in range(q.n) if i != j and q.c[i][j]
        )

    @pytest.mark.parametrize(
        "c", [[[1, 2, 0], [0, 1, 3], [1, 0, 0]], [[0, 3], [2, 0]], [[1, 0, 2], [4, 0, 0], [0, 3, 1]]]
    )
    def test_rho_eval_once_per_nonempty_pair(self, c, monkeypatch):
        """``rho_eval`` runs on one representation per presentation: the one
        of the first row of the first labelled off-diagonal pair, evaluated
        once on each of the d arrows of its block as a one-term polynomial,
        d calls in all and none on an arrow of another block."""
        q = Quiver(c)
        s = scramble(q, seed=6)
        calls = collections.Counter()

        def counting(r, p):
            ((path, coeff),) = p.items()
            (x,) = path.arrows
            assert (x.target, x.source, coeff) == (r.i, r.j, 1.0)
            calls[(id(r), x)] += 1
            return rho_eval(r, p)

        monkeypatch.setattr(recovery, "rho_eval", counting)
        recover(s)
        assert set(calls.values()) == {1}
        assert len({rep for rep, _ in calls}) == 1
        a, b = min(p for p in generator_table(s) if p[0] != p[1])
        i, j = s._vertex[a], s._vertex[b]
        assert sorted((x.target, x.source, x.index) for _, x in calls) == [
            (i, j, m) for m in range(q.c[i][j])
        ]

    def test_zeroed_rho_eval_raises_probe_mismatch(self, monkeypatch):
        """With the upper-right entries of ``rho_eval`` zeroed the spot
        check disagrees with the batched rows; with the batched rows zeroed
        the representation probe counts 0 where the span probe counts the
        arrows."""
        s = scramble(Quiver([[0, 2], [1, 0]]), seed=3)

        with monkeypatch.context() as m:
            m.setattr(recovery, "rho_eval", zeroed_rho_eval)
            with pytest.raises(ProbeMismatchError, match="rho_eval disagrees"):
                recover(s)
        monkeypatch.setattr(recovery, "_rep_rows", zeroed_rep_rows)
        with pytest.raises(ProbeMismatchError, match="rep 0"):
            recover(s)

    def test_family_test_error_comes_before_an_earlier_mismatch(self, monkeypatch):
        """``recover`` builds the representation rows of every row shape
        before it ranks any, so a family-test refusal at the last shape group
        is raised even though the probes already disagree at the first; the
        pair probe on the first pair alone still reports the mismatch."""
        s = scramble(Quiver([[0, 2], [1, 0]]), seed=3)
        table = generator_table(s)
        pairs = sorted(p for p in table if p[0] != p[1])
        # one pair per row shape, so the last shape group holds the last pair
        shapes = [table[p][1].shape for p in pairs]
        assert len(set(shapes)) == len(pairs) == 2
        current = []

        def zeroed_recording(vecs):
            current.append(vecs.shape[-2:])
            return zeroed_rep_rows(vecs)

        def refusing(t, q1):
            if current[-1] == shapes[-1]:
                raise ValueError("refused")

        monkeypatch.setattr(recovery, "_rep_rows", zeroed_recording)
        monkeypatch.setattr(recovery, "_check_contractive", refusing)
        with pytest.raises(RecoveryError, match="family test") as info:
            recover(s)
        assert type(info.value) is RecoveryError
        assert current == shapes
        with pytest.raises(ProbeMismatchError, match="rep 0"):
            probe_pair_dimension(s, *pairs[0])


def _bits(z) -> bytes:
    return np.complex128(z).tobytes()


#: blocks of sizes 1, 2, 3 alternating in (target, source) order, as in the
#: recover4_mixed fixture
MIXED = Quiver([[1, 2, 3, 0], [0, 1, 2, 3], [1, 0, 2, 3], [1, 0, 0, 2]])


class TestBatchedLinearAlgebra:
    """``scramble`` draws every block's Gaussians at once and runs one
    stacked QR per block size; the ranks come from one stacked SVD per
    matrix shape.  The per-block draws of ``reference_scramble`` and
    ``np.linalg.matrix_rank`` are the oracles, and both must agree bit for
    bit."""

    @pytest.mark.parametrize("seed", range(24))
    def test_scramble_equals_per_block_reference(self, seed):
        rng = np.random.default_rng(1100 + seed)
        n = int(rng.integers(3, 6))
        # every block size 1..5 and an empty block, interleaved at random
        c = rng.permutation(np.resize(np.arange(6), n * n)).reshape(n, n)
        self.assert_same_draws(Quiver(c.tolist()), seed)

    @pytest.mark.parametrize("c", [[[0, 0], [0, 0]], [[1]], [[0]]], ids=["arrowless", "loop", "point"])
    def test_scramble_equals_reference_without_blocks_or_one_loop(self, c):
        self.assert_same_draws(Quiver(c), 3)

    @staticmethod
    def assert_same_draws(q, seed):
        s = scramble(q, seed)
        tau, unitaries, generators = reference_scramble(q, seed)
        assert s.hidden_truth.tau == tau
        assert_rows_are_unitary_columns(s, tau, unitaries)
        assert len(s.generators) == len(generators)
        for g, terms in zip(s.generators, generators):
            assert [(p, _bits(z)) for p, z in g.items()] == [(p, _bits(z)) for p, z in terms]

    def test_ranks_equal_matrix_rank(self):
        rng = np.random.default_rng(12)
        mats = []
        for shape in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (3, 3)] * 2:
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            u, _, vh = np.linalg.svd(z, full_matrices=False)
            # full rank, rank one, and a last singular value on either side
            # of RANK_TOL
            mats += [z, np.outer(z[:, 0], z[0]), z.real]
            for scale in (0.5, 1 - 1e-6, 1 + 1e-6, 2.0):
                sv = np.ones(min(shape))
                sv[-1] = RANK_TOL * scale
                mats.append((u * sv) @ vh)
        mats += [np.zeros((2, 2)), np.zeros((2, 2), dtype=complex), np.zeros((1, 3))]
        # singular values above RANK_TOL times the largest one count
        svs = [np.linalg.svd(m, compute_uv=False) for m in mats]
        want = [int((sv > RANK_TOL * sv.max()).sum()) for sv in svs]
        assert [recovery._ranks(m[None]).item() for m in mats] == want
        # stacked: the matrices of one shape and dtype at once
        for key in {(m.shape, m.dtype) for m in mats}:
            ks = [k for k, m in enumerate(mats) if (m.shape, m.dtype) == key]
            assert recovery._ranks(np.stack([mats[k] for k in ks])).tolist() == [want[k] for k in ks]
        # the list holds rank-deficient matrices; a lone nonzero singular
        # value always counts, and the near-RANK_TOL ones of larger
        # matrices fall on both sides
        assert any(r < min(m.shape) for r, m in zip(want, mats))
        assert [r for r, m in zip(want, mats) if m.shape == (1, 1)][3:7] == [1, 1, 1, 1]
        assert [r for r, m in zip(want, mats) if m.shape == (2, 2)][3:7] == [1, 1, 2, 2]
        assert recovery._ranks(np.zeros((1, 0, 0))).tolist() == [0]
        assert recovery._ranks(np.zeros((0, 2, 2))).tolist() == []

    def test_one_qr_per_block_size_and_one_svd_per_row_shape(self, monkeypatch):
        stacks = collections.defaultdict(list)

        def recording(name, f):
            def wrapped(a, *args, **kwargs):
                stacks[name].append(np.shape(a))
                return f(a, *args, **kwargs)
            return wrapped

        for name in ("qr", "svd"):
            monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
        s = scramble(MIXED, seed=9)
        sizes = collections.Counter(d for row in MIXED.c for d in row if d)
        # one stacked QR per block size, and one stacked SVD per shape of
        # the generator table's rows
        want = sorted((m, d, d) for d, m in sizes.items())
        assert sorted(stacks.pop("qr")) == sorted(stacks.pop("svd")) == want
        recover(s)
        off = collections.Counter(
            d for i, row in enumerate(MIXED.c) for j, d in enumerate(row) if i != j and d
        )
        assert sorted(stacks.pop("svd")) == sorted((m, d, d) for d, m in off.items())
        assert not stacks


class TestRecover:
    def test_identity_scramble_recovers_exactly(self):
        q = Quiver([[1, 2], [0, 1]])
        report = recover(manual_presentation(q, range(q.n)))
        assert Quiver(report.c_recovered) == q
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

    def test_single_pair_probes_agree_with_batched_route(self):
        q = Quiver([[1, 2], [2, 1]])
        s = scramble(q, seed=33)
        assert single_pair_probes(s) == [list(row) for row in recover(s).c_recovered]

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


def scramble_and_recover_seconds(q, runs=1):
    """The shortest wall time of ``recover(scramble(q, seed=1))`` over
    ``runs`` runs, each of whose witnesses must exist."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        report = recover(scramble(q, seed=1))
        times.append(time.perf_counter() - t0)
        assert report.witness is not None
    return min(times)


def test_thirty_vertices_within_budget():
    """Scrambling and recovering a random 0/1/2 graph on 30 vertices (about
    900 generators) takes under 0.3 s."""
    q = Quiver(np.random.default_rng(1).integers(0, 3, size=(30, 30)).tolist())
    assert scramble_and_recover_seconds(q) < 0.3


def test_sixty_four_vertices_within_budget():
    """The same on 64 vertices (4,103 generators on about 2,700 blocks)
    also takes under 0.3 s.  This budget and the next take the best of
    three runs: with threaded BLAS a single stacked QR has been seen to
    stall for about 1 s on a 2-vCPU machine."""
    q = Quiver(np.random.default_rng(1).integers(0, 3, size=(64, 64)).tolist())
    assert scramble_and_recover_seconds(q, runs=3) < 0.3


def test_two_hundred_parallel_arrows_within_budget():
    """One off-diagonal block of 200 arrows: 200 generators, each a row of
    200 coefficients, scrambled and recovered in under 0.2 s."""
    assert scramble_and_recover_seconds(Quiver([[0, 200], [0, 0]]), runs=3) < 0.2


def test_arrow_layout_reads_on_the_1024_vertex_cycle_within_budget():
    """On the 1024-vertex cycle, ``scramble``, ``quiver_to_dict`` and five
    ``inner_product`` calls take under 0.1 s together, best of three, each
    run once untimed first: they read the quiver's cached arrow layout, so
    none of them walks the 1,048,576 multiplicities or builds a mask per
    vertex."""
    n = 1024
    q = Quiver([[int(i == (j + 1) % n) for j in range(n)] for i in range(n)])
    xi = CorrespondenceElement.random(q, np.random.default_rng(1))

    def run():
        scramble(q, seed=1)
        quiver_to_dict(q)
        for _ in range(5):
            inner_product(xi, xi)

    run()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.1


@pytest.mark.parametrize("n", [4, 12, 30])
def test_polynomial_work_does_not_grow_with_the_generators(n, monkeypatch):
    """From ``scramble`` through ``recover`` the polynomial layer runs only
    the two spot routes: two products, one ``rho_eval`` per arrow of one
    block (at most 2 here), and no polynomial per generator, only the n
    idempotents, the one generator and its two products, and the arrow
    monomials of the ``rho_eval`` spot check."""
    q = Quiver(np.random.default_rng(n).integers(0, 3, size=(n, n)).tolist())
    counts = collections.Counter()

    def counting(name, f):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(PathPolynomial, "__mul__", counting("mul", PathPolynomial.__mul__))
    monkeypatch.setattr(PathPolynomial, "__init__", counting("init", PathPolynomial.__init__))
    monkeypatch.setattr(recovery, "rho_eval", counting("rho_eval", rho_eval))
    s = scramble(q, seed=1)
    recover(s)
    assert q.total_arrows() > 2 * n
    assert counts["mul"] == 2
    assert 1 <= counts["rho_eval"] <= 2
    assert counts["init"] == n + 3 + counts["rho_eval"]


def test_one_family_test_per_row_shape(monkeypatch):
    """``recover`` on 30 vertices runs the family test once per distinct
    shape of the off-diagonal pairs' rows, on every pair of that shape at
    once, not once per pair."""
    q = Quiver(np.random.default_rng(1).integers(0, 3, size=(30, 30)).tolist())
    s = scramble(q, seed=1)
    calls = []
    check = recovery._check_contractive
    monkeypatch.setattr(
        recovery, "_check_contractive", lambda t, q1: (calls.append(np.shape(t)), check(t, q1))[1]
    )
    recover(s)
    off = [vecs for (a, b), (_, vecs, _) in generator_table(s).items() if a != b]
    shapes = collections.Counter(vecs.shape for vecs in off)
    assert len(off) > 100 and len(shapes) == 2
    assert sorted(calls) == sorted((m, d) for (d, _), m in shapes.items())


@pytest.mark.parametrize("scale", [1, 1e150, 1e154, 1e200, 1e300, 1e307])
def test_large_finite_coefficients_recover(scale):
    """Rows with entries near the largest double: each row is divided by its
    largest modulus before its norm is taken, so no norm overflows (a
    warning here fails the test) and both probes count the 2 arrows."""
    q = Quiver([[0, 2], [0, 0]])
    x, y = (PathPolynomial.arrow(q, arrow) for arrow in q.block(0, 1))
    s = ScrambledPresentation(
        idempotents=(PathPolynomial.vertex(q, 0), PathPolynomial.vertex(q, 1)),
        generators=(x * scale + y * scale, x * scale - y * scale),
    )
    assert recover(s).c_recovered == ((0, 2), (0, 0))
    assert probe_pair_dimension(s, 0, 1) == 2


@pytest.mark.parametrize("z", [1.7e308 * (1 + 1j), 1.7e308j, 1.2e308 * (1 - 1j), 1.79e308, -1.79e308 * (1 + 1j)])
def test_coefficients_near_the_largest_double_recover_or_raise(z):
    """Generators x * z + y and x - y * z with both parts of z near the
    largest double, whose modulus overflows: each row is divided by its
    largest real or imaginary part, so under warnings as errors ``recover``
    returns the matrix or, when a row's norm is past the largest double,
    raises RecoveryError (never a numpy warning or LinAlgError)."""
    q = Quiver([[0, 2], [0, 0]])
    x, y = (PathPolynomial.arrow(q, arrow) for arrow in q.block(0, 1))
    s = ScrambledPresentation(
        idempotents=(PathPolynomial.vertex(q, 0), PathPolynomial.vertex(q, 1)),
        generators=(x * z + y, x - y * z),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert recover(s).c_recovered == ((0, 2), (0, 0))
        except RecoveryError as exc:
            assert "overflow" in str(exc)


def test_rank_inputs_no_wider_than_their_pair(monkeypatch):
    """During ``recover`` on 30 vertices the only ranks taken are of the
    representation rows, one representation per generator of a label pair,
    and no input has more columns than those generators.  The span ranks
    come from the generator table, built when the presentation is."""
    rng = np.random.default_rng(1)
    q = Quiver(rng.integers(0, 3, size=(30, 30)).tolist())
    s = scramble(q, seed=1)
    shapes = []
    ranks = recovery._ranks

    def recording(matrices):
        shapes.extend(np.shape(m) for m in matrices)
        return ranks(matrices)

    monkeypatch.setattr(recovery, "_ranks", recording)
    recover(s)
    # one rank (of the representation rows) per nonempty off-diagonal block
    nonempty = [(i, j) for i in range(q.n) for j in range(q.n) if q.c[i][j]]
    assert len(shapes) == sum(1 for i, j in nonempty if i != j)
    assert all(cols <= rows for rows, cols in shapes)


def test_sixty_five_vertex_cycle_recovers_with_the_labels_witness(tmp_path):
    """Past ``ISO_VERTEX_LIMIT`` vertices the presentation is recovered: the
    witness is the labels' relabelling, the argsort of tau, with no search
    to refuse the size; the CLI recovers the same graph."""
    n = ISO_VERTEX_LIMIT + 1
    q = Quiver([[int(i == (j + 1) % n) for j in range(n)] for i in range(n)])
    s = scramble(q, seed=1)
    report = recover(s)
    assert report.witness == tuple(np.argsort(s.hidden_truth.tau).tolist())
    assert apply_permutation(Quiver(report.c_recovered), report.witness) == q
    g = tmp_path / "cycle.json"
    edges = [{"from": v, "to": v % n + 1, "count": 1} for v in range(1, n + 1)]
    g.write_text(json.dumps({"n": n, "edges": edges}))
    assert main(["recover", "--graph", str(g), "--output", str(tmp_path / "out.json")]) == 0


def test_witness_is_the_labels_relabelling_not_the_least():
    """On the directed 3-cycle, whose rotations are automorphisms, the seed-0
    scramble recovers the cycle itself: the least witness is the identity,
    while ``recover`` reports tau^-1, a rotation."""
    q = Quiver([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    s = scramble(q, seed=0)
    report = recover(s)
    assert s.hidden_truth.tau == (2, 0, 1)
    assert Quiver(report.c_recovered) == q
    assert are_isomorphic(q, q) == (0, 1, 2)
    assert report.witness == (1, 2, 0)
    assert apply_permutation(q, report.witness) == q


def test_recover_runs_no_isomorphism_search(monkeypatch):
    calls = []

    def counting(q1, q2):
        calls.append((q1, q2))
        return are_isomorphic(q1, q2)

    monkeypatch.setattr(quiver, "are_isomorphic", counting)
    monkeypatch.setattr(recovery, "are_isomorphic", counting)
    q = Quiver(np.random.default_rng(4).integers(0, 3, size=(6, 6)).tolist())
    assert recover(scramble(q, seed=4)).witness is not None
    assert calls == []


def test_two_hundred_vertices_within_budget():
    """A random 0/1/2 graph on 200 vertices, 30 % of its blocks nonempty
    (about 18,000 generators), is scrambled and recovered in under 1 s, best
    of three."""
    rng = np.random.default_rng(200)
    c = rng.integers(1, 3, size=(200, 200)) * (rng.random((200, 200)) < 0.3)
    assert scramble_and_recover_seconds(Quiver(c), runs=3) < 1.0


def test_recover_two_hundred_vertices_within_budget():
    """``recover`` alone, ``scramble`` outside the timer, on the 200-vertex
    presentation above (about 12,000 labelled pairs) takes under 0.2 s, best
    of three: the representation rows are built once per row shape."""
    rng = np.random.default_rng(200)
    c = rng.integers(1, 3, size=(200, 200)) * (rng.random((200, 200)) < 0.3)
    s = scramble(Quiver(c), seed=1)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        recover(s)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.2


def test_five_hundred_vertices_within_budget():
    """The random 0/1/2 graph on 500 vertices, 30 % of its blocks nonempty
    (about 75,000 blocks and 112,000 generators), is scrambled and recovered
    in under 1 s, best of three: the table holds one record per row shape,
    so no step works block by block through numpy."""
    rng = np.random.default_rng(500)
    c = rng.integers(1, 3, size=(500, 500)) * (rng.random((500, 500)) < 0.3)
    assert scramble_and_recover_seconds(Quiver(c), runs=3) < 1.0


@pytest.mark.parametrize("c", [[[0, 2], [0, 0]], [[2]]], ids=["off_diagonal", "loops"])
def test_degenerate_and_redundant_generating_sets(c):
    """Generators x and x + eps * y on a block of two arrows build a
    presentation whatever eps is; ``recover`` counts them and compares the
    counts with the graph.  At eps = 1e-3 they span the block.  At
    eps <= 1e-8 the rank falls to 1 and the comparison refuses, as it does
    for x alone, naming the block with its counted and expected sizes; the
    redundant set (x, y, x + y) spans the block."""
    q = Quiver(c)
    x, y = (PathPolynomial.arrow(q, arrow) for arrow in q.block(0, q.n - 1))
    idempotents = tuple(PathPolynomial.vertex(q, v) for v in range(q.n))

    for generators in [(x, x + 1e-3 * y), (x, y, x + y)]:
        s = ScrambledPresentation(idempotents, generators)
        assert recover(s).c_recovered == tuple(map(tuple, c))
    # the refusal names the first block that differs, its count and its size
    refusal = rf"not a vertex relabelling of the source graph: block \(0, {q.n - 1}\) counted 1, expected 2$"
    for generators in [(x, x + eps * y) for eps in (1e-8, 1e-9, 1e-12)] + [(x,)]:
        s = ScrambledPresentation(idempotents, generators)
        with pytest.raises(RecoveryError, match=refusal):
            recover(s)


@pytest.mark.parametrize("z", [1e-10, 1e-200])
@pytest.mark.parametrize("c", [[[0, 2], [0, 0]], [[2]]], ids=["off_diagonal", "loops"])
def test_small_scaled_generators_recover(c, z):
    """Generators x * z + y * z and x * z - y * z span the block of two
    arrows whatever z != 0 is: a rank counts singular values against the
    largest one of the same rows, so a small z is not read as zero."""
    q = Quiver(c)
    x, y = (PathPolynomial.arrow(q, arrow) for arrow in q.block(0, q.n - 1))
    idempotents = tuple(PathPolynomial.vertex(q, v) for v in range(q.n))
    s = ScrambledPresentation(idempotents, (x * z + y * z, x * z - y * z))
    assert recover(s).c_recovered == tuple(map(tuple, c))


@pytest.mark.parametrize("z", [1.5e308, 1.79e308, 1.7e308j])
def test_loops_near_the_largest_double_recover(z):
    """Two loops with generators x * z + y * z and x * z - y * z: the rows'
    singular values overflow to inf, and the largest one, against which
    they are counted, is capped at the largest double, so both count."""
    q = Quiver([[2]])
    x, y = (PathPolynomial.arrow(q, arrow) for arrow in q.block(0, 0))
    s = ScrambledPresentation((PathPolynomial.vertex(q, 0),), (x * z + y * z, x * z - y * z))
    assert recover(s).c_recovered == ((2,),)
    assert probe_character_dimension(s, 0) == 2


#: the functions and ``ScrambledPresentation`` methods that must read no
#: multiplicity matrix, and the attributes they may not read
_GRAPH_BLIND = {
    "_block_support", "_rep_rows", "_spot_check", "_ranks", "_find", "_counts",
    "probe_character_dimension", "probe_pair_dimension", "recover",
    "__init__", "_of_rows", "_label", "_tabulate", "_index",
}
_GRAPH_ATTRIBUTES = ("c", "block", "_nonempty_blocks")


def _graph_reads(source):
    """Name -> the banned attributes read by each ``_GRAPH_BLIND`` function
    of the module body or of the ``ScrambledPresentation`` class body."""
    tree = ast.parse(source)
    (cls,) = (
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ScrambledPresentation"
    )
    return {
        fn.name: [
            node.attr
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr in _GRAPH_ATTRIBUTES
        ]
        for fn in (*tree.body, *cls.body)
        if isinstance(fn, ast.FunctionDef) and fn.name in _GRAPH_BLIND
    }


def test_probes_read_no_multiplicity_matrix():
    """The probes get their vectors from the generator table, whose rows
    ``scramble`` writes from the block unitaries and ``_block_support`` reads
    off each polynomial generator, and the constructor that builds the table
    compares nothing with the graph: none of them reads an attribute ``c``
    or ``_nonempty_blocks`` or calls ``block``.  The counts meet the graph
    only in ``_check_counts``, which ``recover`` calls.  The walker itself
    must flag a read of ``self.quiver.c`` put into ``_tabulate``."""
    source = inspect.getsource(recovery)
    assert _graph_reads(source) == {name: [] for name in _GRAPH_BLIND}
    marker = "        records = []\n"
    assert source.count(marker) == 1
    mutated = source.replace(marker, marker + "        self.quiver.c\n")
    assert _graph_reads(mutated)["_tabulate"] == ["c"]
