"""Reconstruct a multiplicity matrix from a scrambled algebra presentation.

A scrambled presentation hides a quiver behind two kinds of relabelling: a
vertex permutation tau (the idempotent labelled a is the vertex idempotent of
tau(a)) and an arbitrary unitary change of basis inside every arrow block.
The generators handed out are the unitary images of the arrow basis, in
shuffled order.  Exactly these are the degrees of freedom under which the
multiplicity matrix is known to be invariant, so recovering it from the
presentation mechanizes that invariance.

Both probes read one table, built when the presentation is constructed:
label pair (a, b) -> the indices of the generators labelled (a, b), their
coefficient rows and the rank of those rows.  Each generator g lies in one
arrow block (i, j), and its label pair is read off the idempotents: a and b
are the labels whose idempotents are the vertices i and j.  Then
p_a * g * p_b = g, which one two-sided product per generator checks, and
every other pair compresses g to zero, so the rows at (a, b) are the
compressions p_a * g * p_b.  A row is as wide as the largest arrow index the
pair's generators carry, plus one.

Two independent probes count each off-diagonal entry:

* the span probe reads the table's rank of the rows at (a, b);
* the representation probe builds, from each row at (a, b), a
  two-dimensional representation with zero diagonal data and the normalized
  row as gamma, which the family test of ``TwoDimRep`` must accept, and
  takes the rank of their upper-right entries on the generators labelled
  (a, b).  With zero diagonal data at the vertices (i, j) a representation
  sees only the arrows j -> i, so it vanishes on every other generator.

They must agree entrywise; a mismatch is an internal inconsistency, not a
recoverable state.  A diagonal entry is the rank of the rows at (a, a)
alone.

The small dense linear algebra runs in batches.  ``scramble`` lists the
nonempty blocks in (target, source) order, draws all their Gaussians with
one ``standard_normal`` call (the stream of one real and then one imaginary
(d, d) draw per block) and orthogonalizes them with one stacked QR per block
size.  Every rank comes from one helper, ``_ranks``: one stacked SVD per
matrix shape, counting the singular values above ``RANK_TOL`` as
``np.linalg.matrix_rank`` does.  The constructor ranks all of the table's
rows with one call, and ``recover`` builds the representation rows of every
labelled pair before it ranks them with one call, so a family-test
``RecoveryError`` at any pair is raised before a ``ProbeMismatchError``.

Beyond the polynomial values the code reads the hidden quiver in these
places only: the vertex each idempotent names, its vertex count, and its
multiplicity matrix ``c`` in the constructor's span check, which compares
each pair's row count and rank with the block's size.  Neither the table
nor the probes read ``c``: the rows are sized from the generators, and
``TwoDimRep`` sizes the zero diagonal data itself.
``hidden_truth`` is read only by ``recover``, to refuse a presentation too
large for the isomorphism search, to check the result against the source
graph and to report the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .polynomials import PathPolynomial
from .quiver import Arrow, Quiver, _check_iso_size, are_isomorphic, arrow_path
from .reps import TwoDimRep, rho_eval

# re-exported for perfbench/tracing.py, which wraps recovery.membership_G;
# its self-tests expect every wrapped name to exist
from .reps import membership_G  # noqa: F401

#: singular values below this count as numerical zero in rank computations
RANK_TOL = 1e-8

#: the table entry of a label pair that no generator carries
_UNLABELLED: tuple = ((), (), 0)

#: ``scramble`` refuses graphs whose block unitaries hold more entries than
#: this (the sum of c[i][j]^2), before it draws anything
SCRAMBLE_LIMIT = 2**18


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

    idempotents: tuple[PathPolynomial, ...]
    generators: tuple[PathPolynomial, ...]
    hidden_truth: Optional[HiddenTruth] = None

    def __post_init__(self) -> None:
        if not self.idempotents:
            raise ValueError("a presentation needs at least one idempotent label")
        q = self.quiver
        if self.n != q.n:
            raise ValueError("label count does not match the vertex count")
        # the vertex each label's idempotent names
        vertex = self._vertex = tuple(_idempotent_vertex(p) for p in self.idempotents)
        if len(set(vertex)) != self.n:
            raise ValueError("duplicate idempotent label")
        if any(p.quiver != q for p in (*self.idempotents, *self.generators)):
            raise ValueError("idempotents or generators live over a different quiver")
        # each generator in the block (i, j) is labelled by the labels of i
        # and j, and it must equal p_a * g * p_b for that pair
        label = {v: a for a, v in enumerate(vertex)}
        labelled: dict[tuple[int, int], list[tuple[int, dict[int, complex]]]] = {}
        for k, g in enumerate(self.generators):
            (i, j), coeffs = _block_support(g)
            a, b = label[i], label[j]
            if self.idempotents[a] * g * self.idempotents[b] != g:
                raise RecoveryError(f"generator {k} is not fixed by the idempotents of ({a}, {b})")
            labelled.setdefault((a, b), []).append((k, coeffs))
        # the generator table: label pair (a, b) -> the indices of the
        # generators labelled (a, b), their coefficient rows and their rank
        rows = []
        for kcs in labelled.values():
            width = 1 + max(m for _, coeffs in kcs for m in coeffs)
            vecs = np.zeros((len(kcs), width), dtype=complex)
            for row, (_, coeffs) in zip(vecs, kcs):
                row[list(coeffs)] = list(coeffs.values())
            rows.append(vecs)
        self._by_label: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, int]] = {}
        for ((a, b), kcs), vecs, rank in zip(labelled.items(), rows, _ranks(rows)):
            i, j = vertex[a], vertex[b]
            if len(vecs) != q.c[i][j] or rank != q.c[i][j]:
                raise ValueError(
                    f"generators do not span block ({i}, {j}): "
                    f"{len(vecs)} generators of rank {rank}, need {q.c[i][j]}"
                )
            self._by_label[(a, b)] = (np.array([k for k, _ in kcs]), vecs, rank)
        nonempty = [(i, j) for i in range(q.n) for j in range(q.n) if q.c[i][j]]
        missing = [(i, j) for i, j in nonempty if (label[i], label[j]) not in self._by_label]
        if missing:
            raise ValueError(f"no generators for nonempty blocks {missing}")

    @property
    def n(self) -> int:
        return len(self.idempotents)

    @property
    def quiver(self) -> Quiver:
        return self.idempotents[0].quiver


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


def _ranks(matrices: list[np.ndarray]) -> list[int]:
    """``np.linalg.matrix_rank(m, tol=RANK_TOL)`` of each matrix, from one
    stacked SVD per distinct shape and dtype; a matrix without entries has
    rank 0."""
    ranks = [0] * len(matrices)
    groups: dict[tuple, list[int]] = {}
    for k, m in enumerate(matrices):
        if m.size:
            groups.setdefault((m.shape, m.dtype), []).append(k)
    for ks in groups.values():
        s = np.linalg.svd(np.stack([matrices[k] for k in ks]), compute_uv=False)
        for k, rank in zip(ks, np.count_nonzero(s > RANK_TOL, axis=-1).tolist()):
            ranks[k] = rank
    return ranks


def _idempotent_vertex(p: PathPolynomial) -> int:
    items = list(p.items())
    if len(items) != 1 or items[0][0].length != 0 or items[0][1] != 1:
        raise ValueError("idempotent labels must be single vertex monomials")
    return items[0][0].base


def _block_support(g: PathPolynomial) -> tuple[tuple[int, int], dict[int, complex]]:
    """The one (target, source) block a degree-1 generator lies in, and its
    coefficients by arrow index in that block."""
    if not g.terms or any(p.length != 1 for p in g.terms):
        raise ValueError("generators must be homogeneous of degree 1")
    blocks = {(p.target, p.source) for p in g.terms}
    if len(blocks) != 1:
        raise ValueError("generators must be supported on a single block")
    coeffs = {p.arrows[0].index: coeff for p, coeff in g.items()}
    if not np.isfinite(list(coeffs.values())).all():
        raise ValueError("generator coefficients must be finite")
    return blocks.pop(), coeffs


def _haar_unitaries(rng: np.random.Generator, sizes: list[int]) -> list[np.ndarray]:
    """One Haar unitary per entry of ``sizes``, in order: orthogonalized
    complex Gaussians (QR with phase-fixed diagonal).  The Gaussians are one
    draw, each unitary's real (d, d) part and then its imaginary part in
    turn, which is the stream of two (d, d) draws per unitary; the QRs run
    stacked, one per distinct size."""
    if not sizes:
        return []
    ends = np.cumsum([2 * d * d for d in sizes])
    z = rng.standard_normal(int(ends[-1]))
    by_size: dict[int, list[int]] = {}
    for k, d in enumerate(sizes):
        by_size.setdefault(d, []).append(k)
    unitaries = [np.empty(0)] * len(sizes)
    for d, ks in by_size.items():
        parts = z[ends[ks][:, None] - 2 * d * d + np.arange(2 * d * d)].reshape(-1, 2, d, d)
        q, r = np.linalg.qr((parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0))
        diag = np.diagonal(r, axis1=1, axis2=2).copy()
        diag[diag == 0] = 1.0
        for k, u in zip(ks, q * (diag / np.abs(diag))[:, None, :]):
            unitaries[k] = u
    return unitaries


def scramble(q: Quiver, seed: int) -> ScrambledPresentation:
    """Produce a relabelled presentation of the path algebra of ``q``.

    Deterministic in ``seed``: the vertex permutation, one unitary per
    nonempty arrow block, and the generator order are all drawn from a single
    generator seeded with it.  Graphs whose unitaries would hold more than
    ``SCRAMBLE_LIMIT`` entries are refused before anything is drawn.
    """
    entries = sum(d * d for row in q.c for d in row)
    if entries > SCRAMBLE_LIMIT:
        raise ValueError(
            f"size limit exceeded: refusing to scramble {entries} > "
            f"{SCRAMBLE_LIMIT} unitary entries"
        )
    rng = np.random.default_rng(seed)
    tau = tuple(int(v) for v in rng.permutation(q.n))
    blocks = [(i, j) for i in range(q.n) for j in range(q.n) if q.c[i][j]]
    unitaries = dict(zip(blocks, _haar_unitaries(rng, [q.c[i][j] for i, j in blocks])))
    generators: list[PathPolynomial] = []
    for (i, j), u in unitaries.items():
        paths = [arrow_path(a) for a in q.block(i, j)]
        generators += [PathPolynomial(q, dict(zip(paths, u[:, m]))) for m in range(len(u))]
    order = rng.permutation(len(generators))
    return ScrambledPresentation(
        idempotents=tuple(PathPolynomial.vertex(q, v) for v in tau),
        generators=tuple(generators[k] for k in order),
        hidden_truth=HiddenTruth(quiver=q, tau=tau, unitaries=unitaries),
    )


def probe_character_dimension(s: ScrambledPresentation, a: int) -> int:
    """Dimension of the character-parameter ball at the label a: the rank of
    the doubly-compressed generators p_a * g * p_a."""
    _check_label(s, a)
    return s._by_label.get((a, a), _UNLABELLED)[2]


def _pair_reps(s: ScrambledPresentation, a: int, b: int) -> list[TwoDimRep]:
    """One representation per generator labelled (a, b): zero diagonal data
    and gamma its normalized compression, each passed by the family test."""
    va, vb = s._vertex[a], s._vertex[b]
    reps = []
    for vec in s._by_label.get((a, b), _UNLABELLED)[1]:
        try:
            reps.append(TwoDimRep(s.quiver, va, vb, gamma=vec / np.linalg.norm(vec)))
        except ValueError as exc:
            raise RecoveryError(
                f"normalized compression rejected by the family test: {exc}"
            ) from exc
    return reps


def _rep_rows(s: ScrambledPresentation, a: int, b: int, reps: list[TwoDimRep]) -> np.ndarray:
    """The upper-right entries of the representations ``_pair_reps(s, a, b)``
    on the generators labelled (a, b), one row per representation (they
    vanish on every other generator).  ``rho_eval`` is linear, so it runs
    once per representation and arrow j -> i below the rows' width, k * d
    calls of one term each."""
    if not reps:
        return np.zeros((0, 0))
    vecs = s._by_label[(a, b)][1]
    i, j = s._vertex[a], s._vertex[b]
    monomials = [PathPolynomial.arrow(s.quiver, Arrow(j, i, m)) for m in range(vecs.shape[1])]
    return np.array([[rho_eval(r, x)[0, 1] for x in monomials] for r in reps]) @ vecs.T


def probe_pair_dimension(s: ScrambledPresentation, a: int, b: int) -> int:
    """Dimension of the off-diagonal parameter space at the label pair (a, b):
    the span probe reads the table's rank of the rows at (a, b), the
    representation probe ranks the rows of ``_rep_rows``; raises
    ProbeMismatchError if they disagree."""
    _check_label(s, a)
    _check_label(s, b)
    if a == b:
        raise ValueError("the pair probe needs two distinct labels")
    (rep_dim,) = _ranks([_rep_rows(s, a, b, _pair_reps(s, a, b))])
    return _agreed(s, a, b, rep_dim)


def _agreed(s: ScrambledPresentation, a: int, b: int, rep_dim: int) -> int:
    """The span probe's count at (a, b), once it equals ``rep_dim``."""
    span_dim = s._by_label.get((a, b), _UNLABELLED)[2]
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
    relabelling of the source graph and the witness permutation is reported;
    a presentation too large for that isomorphism search is refused before
    any probe runs.
    """
    n = s.n
    if s.hidden_truth is not None:
        _check_iso_size(n)
    c = [[0] * n for _ in range(n)]
    evidence = []
    for a in range(n):
        d = probe_character_dimension(s, a)
        c[a][a] = d
        evidence.append(PairEvidence(a=a, b=a, span_dim=d, rep_dim=None))
    # every labelled pair's representation rows first, then one rank call
    pairs = sorted((a, b) for a, b in s._by_label if a != b)
    rows = [_rep_rows(s, a, b, _pair_reps(s, a, b)) for a, b in pairs]
    rep_dims = dict(zip(pairs, _ranks(rows)))
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            d = _agreed(s, a, b, rep_dims.get((a, b), 0))
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
        c_recovered=tuple(map(tuple, c)),
        witness=witness,
        evidence=tuple(evidence),
    )
