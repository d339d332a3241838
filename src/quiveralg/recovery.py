"""Reconstruct a multiplicity matrix from a scrambled algebra presentation.

A scrambled presentation hides a quiver behind two kinds of relabelling: a
vertex permutation tau (the idempotent labelled a is the vertex idempotent of
tau(a)) and an arbitrary unitary change of basis inside every arrow block.
The generators handed out are the unitary images of the arrow basis, in
shuffled order.  Exactly these are the degrees of freedom under which the
multiplicity matrix is known to be invariant, so recovering it from the
presentation mechanizes that invariance.

Two independent probes count each off-diagonal entry:

* the span probe compresses every generator between two idempotents and
  takes the rank of the compressed coefficient vectors.  Each generator lies
  in one arrow block, so it is labelled once per presentation: multiplying
  it by the idempotents finds the one label b with g * p_b != 0 and then the
  one label a with p_a * g * p_b != 0.  The compressions at (a, b) are the
  coefficient vectors of p_a * g * p_b for the generators labelled (a, b);
  every other generator compresses to zero there;
* the representation probe builds, from each compression at (a, b), a
  two-dimensional representation with zero diagonal data and the normalized
  compression as gamma, which the family test of ``TwoDimRep`` must accept,
  and takes the rank of their upper-right entries on all generators.  Those
  rows are one product per label pair, A @ C.T: row r of A holds the
  upper-right entries of the arrow matrices of representation r over the
  arrow basis, and C is the (generators x arrows) coefficient matrix of the
  presentation, built once and kept by its nonzero blocks.  One entry per
  pair is recomputed by ``rho_eval``; a gap above ``BATCH_TOL`` raises
  RecoveryError.

They must agree entrywise; a mismatch is an internal inconsistency, not a
recoverable state.  A diagonal entry is the rank of the compressions at
(a, a) alone.

Labels and compressions are found by multiplying the polynomials.  Beyond
that the code reads the hidden quiver in a few places: the vertex each
idempotent names, the multiplicity matrix, which sizes every compression
vector and every block of C (``_block_support``) and the zero diagonal data
of the representations, and the arrows of a block (``_rep_rows``).  The
counts themselves are ranks.
``hidden_truth`` is read only by ``recover``, to check the result against
the source graph and report the witness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .polynomials import PathPolynomial
from .quiver import Quiver, are_isomorphic, arrow_path
from .reps import TwoDimRep, _arrow_matrix, rho_eval

# re-exported for perfbench/tracing.py, which wraps recovery.membership_G;
# its self-tests expect every wrapped name to exist
from .reps import membership_G  # noqa: F401

#: singular values below this count as numerical zero in rank computations
RANK_TOL = 1e-8

#: largest gap allowed between a batched representation row entry and the
#: same entry from ``rho_eval``
BATCH_TOL = 1e-12


class RecoveryError(RuntimeError):
    """The recovered data failed an internal consistency requirement."""


class ProbeMismatchError(RecoveryError):
    """The span probe and the representation probe disagreed."""


@dataclass(eq=False)
class HiddenTruth:
    """Withheld scramble data: the source quiver, the vertex permutation, and
    the per-block unitaries.  For cross-checking only."""

    quiver: Quiver
    tau: tuple[int, ...]
    unitaries: dict[tuple[int, int], np.ndarray]


@dataclass(eq=False)
class ScrambledPresentation:
    """What the recovery algorithm is allowed to see.

    ``idempotents[a]`` is the vertex idempotent the label a names (as an
    algebra element); ``generators`` span the degree-1 part, each supported
    on a single arrow block.
    """

    n: int
    idempotents: tuple[PathPolynomial, ...]
    generators: tuple[PathPolynomial, ...]
    hidden_truth: Optional[HiddenTruth] = None

    def __post_init__(self) -> None:
        if self.n != len(self.idempotents):
            raise ValueError("label count does not match n")
        if self.n != self.quiver.n:
            raise ValueError("label count does not match the vertex count")
        seen = set()
        for p in self.idempotents:
            v = _idempotent_vertex(p)
            if v in seen:
                raise ValueError("duplicate idempotent label")
            seen.add(v)
        q = self.quiver
        for (i, j), (_, vecs) in self._coefficients.items():
            want = q.c[i][j]
            got = np.linalg.matrix_rank(vecs, tol=RANK_TOL)
            if len(vecs) != want or got != want:
                raise ValueError(
                    f"generators do not span block ({i}, {j}): "
                    f"{len(vecs)} generators of rank {got}, need {want}"
                )
        missing = [
            (i, j)
            for i in range(q.n)
            for j in range(q.n)
            if q.c[i][j] and (i, j) not in self._coefficients
        ]
        if missing:
            raise ValueError(f"no generators for nonempty blocks {missing}")

    @property
    def quiver(self) -> Quiver:
        return self.idempotents[0].quiver

    @functools.cached_property
    def _compressions(self) -> dict[tuple[int, int], list[np.ndarray]]:
        """Label pair (a, b) -> the coefficient vectors of p_a * g * p_b, in
        the arrow-index basis of its block, for the generators g labelled
        (a, b) -- the one pair with p_a * g * p_b != 0 -- in generator order.
        Found by multiplication alone, with at most 2n products per
        generator."""
        table: dict[tuple[int, int], list[np.ndarray]] = {}
        for k, g in enumerate(self.generators):
            right = _first_nonzero(g * pb for pb in self.idempotents)
            left = right and _first_nonzero(pa * right[1] for pa in self.idempotents)
            if not left:
                raise RecoveryError(f"generator {k} is not compressed by any label pair")
            (b, _), (a, compressed) = right, left
            table.setdefault((a, b), []).append(_block_support(compressed)[1])
        return table

    @functools.cached_property
    def _coefficients(self) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
        """The (generators x arrows) coefficient matrix C, kept by its
        nonzero blocks: (i, j) -> the indices of the generators supported on
        the arrows j -> i, in generator order, and their coefficient vectors
        over those arrows, one row each.  Every generator lies in one block,
        so C has no other nonzero entries, and the blocks take O(arrows)
        memory where the dense matrix takes O(arrows^2)."""
        rows: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = {}
        for k, g in enumerate(self.generators):
            block, vec = _block_support(g)
            rows.setdefault(block, []).append((k, vec))
        return {
            block: (np.array([k for k, _ in kvs]), np.array([vec for _, vec in kvs]))
            for block, kvs in rows.items()
        }

@dataclass
class PairEvidence:
    """Dimension counts for one label pair; rep_dim is None on the diagonal,
    where only the character-style probe applies."""

    a: int
    b: int
    span_dim: int
    rep_dim: Optional[int]


@dataclass
class RecoveryReport:
    n_recovered: int
    c_recovered: tuple[tuple[int, ...], ...]
    witness: Optional[tuple[int, ...]]
    evidence: tuple[PairEvidence, ...]


def _idempotent_vertex(p: PathPolynomial) -> int:
    items = list(p.items())
    if len(items) != 1 or items[0][0].length != 0 or items[0][1] != 1:
        raise ValueError("idempotent labels must be single vertex monomials")
    return items[0][0].base


def _first_nonzero(products):
    """The index and value of the first nonzero product, or None."""
    return next(((i, p) for i, p in enumerate(products) if p), None)


def _block_support(g: PathPolynomial) -> tuple[tuple[int, int], np.ndarray]:
    """The (target, source) block of a degree-1 generator and its coefficient
    vector in the arrow-index basis of that block."""
    if not g.terms or any(p.length != 1 for p in g.terms):
        raise ValueError("generators must be homogeneous of degree 1")
    blocks = {(p.target, p.source) for p in g.terms}
    if len(blocks) != 1:
        raise ValueError("generators must be supported on a single block")
    (i, j) = blocks.pop()
    vec = np.zeros(g.quiver.c[i][j], dtype=complex)
    for p, coeff in g.items():
        vec[p.arrows[0].index] = coeff
    return (i, j), vec


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Orthogonalized complex Gaussian (QR with phase-fixed diagonal)."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def scramble(q: Quiver, seed: int, force_identity: bool = False) -> ScrambledPresentation:
    """Produce a relabelled presentation of the path algebra of ``q``.

    Deterministic in ``seed``: the vertex permutation, one unitary per
    nonempty arrow block, and the generator order are all drawn from a single
    generator seeded with it.  ``force_identity`` pins the permutation and
    every unitary to the identity (and keeps the generator order), which is
    useful as a fixed point in tests.
    """
    rng = np.random.default_rng(seed)
    if force_identity:
        tau = tuple(range(q.n))
    else:
        tau = tuple(int(v) for v in rng.permutation(q.n))
    unitaries: dict[tuple[int, int], np.ndarray] = {}
    generators: list[PathPolynomial] = []
    for i in range(q.n):
        for j in range(q.n):
            d = q.c[i][j]
            if d == 0:
                continue
            u = np.eye(d, dtype=complex) if force_identity else _haar_unitary(rng, d)
            unitaries[(i, j)] = u
            paths = [arrow_path(a) for a in q.block(i, j)]
            generators += [PathPolynomial(q, dict(zip(paths, u[:, m]))) for m in range(d)]
    if not force_identity and len(generators) > 1:
        order = rng.permutation(len(generators))
        generators = [generators[k] for k in order]
    idempotents = tuple(PathPolynomial.vertex(q, tau[a]) for a in range(q.n))
    return ScrambledPresentation(
        n=q.n,
        idempotents=idempotents,
        generators=tuple(generators),
        hidden_truth=HiddenTruth(quiver=q, tau=tau, unitaries=unitaries),
    )


def _rank(rows) -> int:
    """Numerical rank of a list or array of rows; 0 when there are none."""
    return int(np.linalg.matrix_rank(np.array(rows), tol=RANK_TOL)) if len(rows) else 0


def probe_character_dimension(s: ScrambledPresentation, a: int) -> int:
    """Dimension of the character-parameter ball at the label a: the rank of
    the doubly-compressed generators p_a * g * p_a."""
    _check_label(s, a)
    return _rank(s._compressions.get((a, a), []))


def _pair_reps(s: ScrambledPresentation, a: int, b: int) -> list[TwoDimRep]:
    """One representation per generator labelled (a, b): zero diagonal data
    and gamma its normalized compression, each passed by the family test."""
    q = s.quiver
    va, vb = _idempotent_vertex(s.idempotents[a]), _idempotent_vertex(s.idempotents[b])
    lam_i = np.zeros(q.c[va][va], dtype=complex)
    lam_j = np.zeros(q.c[vb][vb], dtype=complex)
    reps = []
    for vec in s._compressions.get((a, b), []):
        try:
            reps.append(TwoDimRep(q, va, vb, lam_i, lam_j, vec / np.linalg.norm(vec)))
        except ValueError as exc:
            raise RecoveryError(
                f"normalized compression rejected by the family test: {exc}"
            ) from exc
    return reps


def _rep_rows(s: ScrambledPresentation, reps: list[TwoDimRep]) -> np.ndarray:
    """The upper-right entries of the representations, which share one
    vertex pair (i, j), on every generator: one product A @ C.T.

    Row r of A holds the [0, 1] entries of the arrow matrices of reps[r]
    over the arrow basis, and C is the coefficient matrix of all generators.
    A vanishes off the arrows j -> i, and there C is nonzero only in the rows
    of the generators on that block, so the product is taken over that
    block of C; every other generator gets 0.
    """
    i, j = reps[0].i, reps[0].j
    upper = np.array(
        [
            [_arrow_matrix(i, j, r.lam_i, r.lam_j, r.gamma, x)[0, 1] for x in s.quiver.block(i, j)]
            for r in reps
        ]
    )
    gens, vecs = s._coefficients[(i, j)]
    rows = np.zeros((len(reps), len(s.generators)), dtype=complex)
    rows[:, gens] = upper @ vecs.T
    return rows


def probe_pair_dimension(s: ScrambledPresentation, a: int, b: int) -> int:
    """Dimension of the off-diagonal parameter space at the label pair (a, b),
    computed by both probes; raises ProbeMismatchError if they disagree.

    The representation rows come from one batched product (``_rep_rows``);
    its largest entry in the first row is recomputed by ``rho_eval``, and a
    gap above ``BATCH_TOL`` raises RecoveryError.
    """
    _check_label(s, a)
    _check_label(s, b)
    if a == b:
        raise ValueError("the pair probe needs two distinct labels")
    span_dim = _rank(s._compressions.get((a, b), []))
    reps = _pair_reps(s, a, b)
    rows = []
    if reps:
        rows = _rep_rows(s, reps)
        k = int(np.argmax(np.abs(rows[0])))
        gap = abs(rho_eval(reps[0], s.generators[k])[0, 1] - rows[0, k])
        if gap > BATCH_TOL:
            raise RecoveryError(
                f"batched representation rows disagree with rho_eval at pair "
                f"({a}, {b}), generator {k}: gap {gap:.3g}"
            )
    rep_dim = _rank(rows)
    if span_dim != rep_dim:
        raise ProbeMismatchError(
            f"probes disagree at pair ({a}, {b}): span {span_dim}, rep {rep_dim}"
        )
    return span_dim


def _check_label(s: ScrambledPresentation, a: int) -> None:
    if not 0 <= a < s.n:
        raise ValueError(f"label {a} out of range 0..{s.n - 1}")


def recover(s: ScrambledPresentation) -> RecoveryReport:
    """Assemble the multiplicity matrix from the probes.

    Diagonal entries come from the character probe, off-diagonal entries from
    the pair probe (whose two mechanisms must agree).  When the withheld
    scramble data is available, the result is checked to be a vertex
    relabelling of the source graph and the witness permutation is reported.
    """
    n = s.n
    c = [[0] * n for _ in range(n)]
    evidence = []
    for a in range(n):
        d = probe_character_dimension(s, a)
        c[a][a] = d
        evidence.append(PairEvidence(a=a, b=a, span_dim=d, rep_dim=None))
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            d = probe_pair_dimension(s, a, b)
            evidence.append(PairEvidence(a=a, b=b, span_dim=d, rep_dim=d))
            c[a][b] = d
    recovered = Quiver(c)
    witness = None
    if s.hidden_truth is not None:
        witness = are_isomorphic(recovered, s.hidden_truth.quiver)
        if witness is None:
            raise RecoveryError(
                "recovered matrix is not a vertex relabelling of the source graph"
            )
    return RecoveryReport(
        n_recovered=n,
        c_recovered=recovered.c,
        witness=witness,
        evidence=tuple(evidence),
    )
