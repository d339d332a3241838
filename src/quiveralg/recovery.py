"""Reconstruct a multiplicity matrix from a scrambled algebra presentation.

A scrambled presentation hides a quiver behind two kinds of relabelling: a
vertex permutation tau (the idempotent labelled a is the vertex idempotent of
tau(a)) and an arbitrary unitary change of basis inside every arrow block.
The generators handed out are the unitary images of the arrow basis, in
shuffled order.  Exactly these are the degrees of freedom under which the
multiplicity matrix is known to be invariant, so recovering it from the
presentation mechanizes that invariance.

A generator is a degree-1 element: a vector in the arrow space of one block
(i, j).  The presentation holds each generator as that block and one
coefficient row over the block's arrow indices.  ``scramble`` writes the
rows straight from the columns of the block unitaries; the public
constructor reads degree-1 polynomials into rows with ``_block_support``.
Both then go through one table build: label pair (a, b) -> the indices of the
generators labelled (a, b), their coefficient rows and the rank of those
rows.  A generator's label pair is read off the idempotents: a and b are the
labels whose idempotents are the vertices i and j, so p_a * g * p_b = g and
every other pair compresses g to zero.  The rows are checked as vectors:
each is finite and is filed under the one block its labels are read from.
A row is as wide as the largest arrow index of the pair's generators, plus
one.  ``generators`` returns the polynomials, built from the rows on first
access when the presentation came from ``scramble``.

Two independent probes count each off-diagonal entry:

* the span probe reads the table's rank of the rows V at (a, b);
* the representation probe takes, for each row, the two-dimensional
  representation with zero diagonal data and the normalized row as gamma.
  The family test of ``reps`` must accept every gamma, and the upper-right
  entries of the representations on the generators labelled (a, b) are
  conj(Gamma) @ V.T, with Gamma the normalized rows.  With zero diagonal
  data at the vertices (i, j) a representation sees only the arrows
  j -> i, so it vanishes on every other generator.

They must agree entrywise; a mismatch is an internal inconsistency, not a
recoverable state.  A diagonal entry is the rank at (a, a) alone.

Two spot routes run on the algebra itself, once per presentation each, as
independent checks of the vector routes; their cost does not grow with the
generator count.  The constructor multiplies one generator by its label
pair's idempotents, p_a * g * p_b == g, through ``PathPolynomial``.  Once
the counts match the graph, ``recover`` builds the ``TwoDimRep`` of the
first row of the first labelled off-diagonal pair and evaluates it with
``rho_eval`` on each arrow of that block; times V.T, this must give the
batched row.  The benchmark's self-tests (``perfbench``) also count these
products and ``rho_eval`` calls on a recovery request.

The small dense linear algebra runs once per matrix shape: ``_stacked``
groups matrices by shape and dtype, calls a function on each group's stack
and returns the results in input order.  Through it ``scramble``
orthogonalizes the Gaussians of all nonempty blocks, drawn with one
``_complex_gaussians`` call, with one QR per block size; ``_ranks`` takes one
SVD per shape, counting singular values above ``RANK_TOL`` as
``np.linalg.matrix_rank`` does; ``_counts``, which counts for ``recover``
and the pair probe, builds all representation rows, one family test and
one product per row shape, before one ``_ranks`` call, so a family-test
``RecoveryError`` at any pair comes before a ``ProbeMismatchError``.

The counts meet the graph once, in ``recover``: relabelled by tau^-1, the
argsort of the labels' vertices (label a names tau(a)), they must give the
presentation's quiver, or ``RecoveryError`` is raised, so a generating set
that misses or does not span a block is refused there.  Beyond that the
code reads of the graph only the vertex each idempotent names and the
vertex count.  ``hidden_truth`` only decides whether tau^-1 is reported as
the witness; no isomorphism search runs, so ``recover`` caps no vertex count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .correspondence import _complex_gaussians
from .polynomials import PathPolynomial
from .quiver import Arrow, Quiver, apply_permutation, arrow_path
from .reps import TwoDimRep, _check_contractive, rho_eval

# re-exported for perfbench/tracing.py, which wraps both names here; its
# self-tests expect every wrapped name to exist
from .quiver import are_isomorphic  # noqa: F401
from .reps import membership_G  # noqa: F401

#: singular values below this count as numerical zero in rank computations
RANK_TOL = 1e-8

#: the rho_eval spot check's largest admitted difference from the batched
#: representation row, relative to the largest coefficient of the pair's rows
_SPOT_TOL = 1e-10

#: the table entry of a label pair that no generator carries
_UNLABELLED: tuple = ((), np.zeros((0, 0), dtype=complex), 0)

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


class ScrambledPresentation:
    """What the recovery algorithm is allowed to see.

    ``idempotents[a]`` is the vertex idempotent the label a names (as an
    algebra element).  The generators span the degree-1 part, each supported
    on a single arrow block (i, j); the presentation holds each as that block
    and a coefficient row over its arrow indices.  The constructor takes the
    generators as degree-1 polynomials, and ``generators`` gives them back as
    polynomials.  It compares nothing with the graph; ``recover`` does.
    """

    def __init__(self, idempotents, generators, hidden_truth: Optional[HiddenTruth] = None):
        self._label(idempotents, hidden_truth)
        generators = tuple(generators)
        if any(p.quiver != self.quiver for p in (*self.idempotents, *generators)):
            raise ValueError("idempotents or generators live over a different quiver")
        by_block: dict[tuple[int, int], list[tuple[int, dict[int, complex]]]] = {}
        for k, g in enumerate(generators):
            block, coeffs = _block_support(g)
            by_block.setdefault(block, []).append((k, coeffs))
        rows = {}
        for block, kcs in by_block.items():
            width = 1 + max(m for _, coeffs in kcs for m in coeffs)
            vecs = np.zeros((len(kcs), width), dtype=complex)
            for row, (_, coeffs) in zip(vecs, kcs):
                row[list(coeffs)] = list(coeffs.values())
            rows[block] = (np.array([k for k, _ in kcs]), vecs)
        self._tabulate(rows)
        self._generators: Optional[tuple[PathPolynomial, ...]] = generators

    @classmethod
    def _of_rows(cls, idempotents, rows, hidden_truth: HiddenTruth) -> "ScrambledPresentation":
        """The presentation whose generators are given by block: (i, j) ->
        (their indices, ascending; their coefficient rows over the arrows of
        (i, j)).  Its polynomials are built on first use of ``generators``."""
        s = cls.__new__(cls)
        s._label(idempotents, hidden_truth)
        s._tabulate(rows)
        s._generators = None
        return s

    def _label(self, idempotents, hidden_truth: Optional[HiddenTruth]) -> None:
        self.idempotents = tuple(idempotents)
        self.hidden_truth = hidden_truth
        if not self.idempotents:
            raise ValueError("a presentation needs at least one idempotent label")
        if self.n != self.quiver.n:
            raise ValueError("label count does not match the vertex count")
        # the vertex each label's idempotent names
        vertex = self._vertex = tuple(_idempotent_vertex(p) for p in self.idempotents)
        if len(set(vertex)) != self.n:
            raise ValueError("duplicate idempotent label")

    def _tabulate(self, rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]) -> None:
        """The generator table, from the generators' indices and rows by block:
        label pair (a, b) -> the indices of the generators labelled (a, b),
        their coefficient rows and their rank, in the order of each pair's
        first generator."""
        label = {v: a for a, v in enumerate(self._vertex)}
        # each row is a finite vector in one block (i, j), and it is labelled
        # by the labels of i and j
        table = {}
        for i, j in sorted(rows, key=lambda block: rows[block][0][0]):
            ks, vecs = rows[(i, j)]
            if not np.isfinite(vecs).all():
                raise ValueError("generator coefficients must be finite")
            table[(label[i], label[j])] = (i, j, ks, vecs)
        if table:
            # the polynomial route, on generator 0: p_a * g * p_b == g
            (a, b), (i, j, _, vecs) = next(iter(table.items()))
            g = _polynomial(self.quiver, i, j, vecs[0])
            if self.idempotents[a] * g * self.idempotents[b] != g:
                raise RecoveryError(f"generator 0 is not fixed by the idempotents of ({a}, {b})")
        ranks = _ranks([vecs for _, _, _, vecs in table.values()])
        self._by_label: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, int]] = {
            pair: (ks, vecs, rank) for (pair, (_, _, ks, vecs)), rank in zip(table.items(), ranks)
        }

    @property
    def generators(self) -> tuple[PathPolynomial, ...]:
        """The generators as degree-1 polynomials, in order."""
        if self._generators is None:
            gens: list = [None] * sum(len(ks) for ks, _, _ in self._by_label.values())
            for (a, b), (ks, vecs, _) in self._by_label.items():
                i, j = self._vertex[a], self._vertex[b]
                for k, row in zip(ks.tolist(), vecs):
                    gens[k] = _polynomial(self.quiver, i, j, row)
            self._generators = tuple(gens)
        return self._generators

    @property
    def n(self) -> int:
        return len(self.idempotents)

    @property
    def quiver(self) -> Quiver:
        return self.idempotents[0].quiver


@dataclass
class RecoveryReport:
    n_recovered: int
    c_recovered: tuple[tuple[int, ...], ...]
    #: tau^-1 read off the labels, certified against the hidden source graph
    witness: Optional[tuple[int, ...]]


def _stacked(matrices: list[np.ndarray], fn) -> list:
    """``fn`` of each matrix, in input order, from one call of ``fn`` per
    distinct shape and dtype (in order of first occurrence) on their stack."""
    groups: dict[tuple, list[int]] = {}
    for k, m in enumerate(matrices):
        groups.setdefault((m.shape, m.dtype), []).append(k)
    results: list = [None] * len(matrices)
    for ks in groups.values():
        for k, r in zip(ks, fn(np.stack([matrices[k] for k in ks]))):
            results[k] = r
    return results


def _ranks(matrices: list[np.ndarray]) -> list[int]:
    """``np.linalg.matrix_rank(m, tol=RANK_TOL)`` of each matrix, from one
    stacked SVD per distinct shape and dtype; a matrix without entries has
    rank 0."""
    return _stacked(
        matrices, lambda m: (np.linalg.svd(m, compute_uv=False) > RANK_TOL).sum(-1).tolist()
    )


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
    return blocks.pop(), {p.arrows[0].index: coeff for p, coeff in g.items()}


def _polynomial(q: Quiver, i: int, j: int, row: np.ndarray) -> PathPolynomial:
    """The degree-1 polynomial with the coefficient row ``row`` over the
    arrows of block (i, j), in arrow index order."""
    return PathPolynomial._of_valid_paths(
        q, {arrow_path(Arrow(j, i, m)): z for m, z in enumerate(row.tolist())}
    )


def _haar_unitaries(rng: np.random.Generator, sizes: list[int]) -> list[np.ndarray]:
    """One Haar unitary per entry of ``sizes``, in order: orthogonalized
    complex Gaussians (QR with phase-fixed diagonal) from one
    ``_complex_gaussians`` draw; the QRs run stacked, one per distinct size."""
    squares = [d * d for d in sizes]
    gaussians = np.split(_complex_gaussians(rng, squares) / np.sqrt(2.0), np.cumsum(squares)[:-1])

    def orthogonalized(z):
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=1, axis2=2).copy()
        diag[diag == 0] = 1.0
        return q * (diag / np.abs(diag))[:, None, :]

    return _stacked([z.reshape(d, d) for z, d in zip(gaussians, sizes)], orthogonalized)


def scramble(q: Quiver, seed: int) -> ScrambledPresentation:
    """Produce a relabelled presentation of the path algebra of ``q``.

    Deterministic in ``seed``: the vertex permutation, one unitary per
    nonempty arrow block, and the generator order are all drawn from a single
    generator seeded with it.  Graphs whose unitaries would hold more than
    ``SCRAMBLE_LIMIT`` entries are refused before anything is drawn.
    """
    blocks = {(i, j): d for i, j, d in q._nonempty_blocks}
    entries = sum(d * d for d in blocks.values())
    if entries > SCRAMBLE_LIMIT:
        raise ValueError(
            f"size limit exceeded: refusing to scramble {entries} > "
            f"{SCRAMBLE_LIMIT} unitary entries"
        )
    rng = np.random.default_rng(seed)
    tau = tuple(int(v) for v in rng.permutation(q.n))
    unitaries = dict(zip(blocks, _haar_unitaries(rng, list(blocks.values()))))
    # the generators, listed block by block, are the columns of the
    # unitaries; the one listed at p is handed out as generator position[p]
    position = np.argsort(rng.permutation(q.total_arrows()))
    # each block's arrows follow the previous block's, in block order
    listed = np.split(position, np.cumsum(list(blocks.values()))[:-1])
    rows = {}
    for ((i, j), u), ks in zip(unitaries.items(), listed):
        by_index = np.argsort(ks)
        rows[(i, j)] = (ks[by_index], u.T[by_index])
    return ScrambledPresentation._of_rows(
        tuple(PathPolynomial.vertex(q, v) for v in tau),
        rows,
        HiddenTruth(quiver=q, tau=tau, unitaries=unitaries),
    )


def probe_character_dimension(s: ScrambledPresentation, a: int) -> int:
    """Dimension of the character-parameter ball at the label a: the rank of
    the doubly-compressed generators p_a * g * p_a."""
    _check_label(s, a)
    return s._by_label.get((a, a), _UNLABELLED)[2]


def _rep_rows(vecs: np.ndarray) -> np.ndarray:
    """The upper-right entries of a label pair's representations on the
    generators it labels, one row per representation (they vanish on every
    other generator): with V the pair's rows, (d, w) or a stack (m, d, w),
    and Gamma those rows normalized, each divided by its largest modulus
    first so that no finite row's norm overflows, every gamma must pass the
    family test, and the entries are conj(Gamma) @ V.T."""
    scaled = vecs / np.abs(vecs).max(axis=-1, keepdims=True, initial=0.0)
    gammas = scaled / np.linalg.norm(scaled, axis=-1, keepdims=True)
    try:
        _check_contractive(np.linalg.norm(gammas, axis=-1) ** 2, 0.0)
    except ValueError as exc:
        raise RecoveryError(f"normalized compression rejected by the family test: {exc}") from exc
    return gammas.conj() @ vecs.swapaxes(-1, -2)


def _spot_check(s: ScrambledPresentation, a: int, b: int, batched: np.ndarray) -> None:
    """``rho_eval`` of the representation built from the first row at (a, b),
    normalized as in ``_rep_rows``, on each arrow of that block, times the
    rows' transpose: it must give ``batched``, the first row of ``_rep_rows``
    at (a, b), or ProbeMismatchError is raised."""
    vecs = s._by_label[(a, b)][1]
    i, j = s._vertex[a], s._vertex[b]
    row = vecs[0] / np.abs(vecs[0]).max()
    r = TwoDimRep(s.quiver, i, j, gamma=row / np.linalg.norm(row))
    arrows = [PathPolynomial.arrow(s.quiver, Arrow(j, i, m)) for m in range(vecs.shape[1])]
    spot = np.array([rho_eval(r, x)[0, 1] for x in arrows]) @ vecs.T
    if np.abs(spot - batched).max() > _SPOT_TOL * np.abs(vecs).max():
        raise ProbeMismatchError(
            f"rho_eval disagrees with the batched representation rows at pair ({a}, {b})"
        )


def _counts(s: ScrambledPresentation, pairs: list[tuple[int, int]]) -> tuple[list[int], list]:
    """The span rank of each label pair in ``pairs`` (0 if unlabelled), and
    the ``_rep_rows`` of the off-diagonal ones, all built before one
    ``_ranks`` call; ProbeMismatchError names the first pair whose
    representation probe counts differently."""
    entries = [s._by_label.get(p, _UNLABELLED) for p in pairs]
    off = [k for k, (a, b) in enumerate(pairs) if a != b]
    rows = _stacked([entries[k][1] for k in off], _rep_rows)
    for k, rep in zip(off, _ranks(rows)):
        if rep != entries[k][2]:
            raise ProbeMismatchError(
                f"probes disagree at pair {pairs[k]}: span {entries[k][2]}, rep {rep}"
            )
    return [rank for _, _, rank in entries], rows


def probe_pair_dimension(s: ScrambledPresentation, a: int, b: int) -> int:
    """Dimension of the off-diagonal parameter space at the label pair (a, b),
    counted by ``_counts`` as in ``recover``: the span and representation
    probes must agree, or ProbeMismatchError is raised."""
    _check_label(s, a)
    _check_label(s, b)
    if a == b:
        raise ValueError("the pair probe needs two distinct labels")
    (count,), _ = _counts(s, [(a, b)])
    return count


def _check_label(s: ScrambledPresentation, a: int) -> None:
    if not 0 <= a < s.n:
        raise ValueError(f"label {a} out of range 0..{s.n - 1}")


def recover(s: ScrambledPresentation) -> RecoveryReport:
    """Assemble the multiplicity matrix from the probes.

    Every entry is the span rank of its label pair; off the diagonal the
    representation probe must count the same, or ProbeMismatchError names
    the first pair, in row-major order, where the two differ.  Relabelled by
    tau^-1, the argsort of the labels' vertices, the matrix must be the
    presentation's quiver, or RecoveryError is raised; only then does the
    ``rho_eval`` spot check run.  tau^-1 is the witness when the withheld
    scramble data is available.
    """
    pairs = sorted(s._by_label)
    counts, rows = _counts(s, pairs)
    matrix = np.zeros((s.n, s.n), dtype=np.int64)
    matrix[[a for a, _ in pairs], [b for _, b in pairs]] = counts
    witness = tuple(np.argsort(s._vertex).tolist())
    if apply_permutation(Quiver(matrix), witness) != s.quiver:
        raise RecoveryError("recovered matrix is not a vertex relabelling of the source graph")
    if rows:
        _spot_check(s, *next(p for p in pairs if p[0] != p[1]), rows[0][0])
    if s.hidden_truth is None:
        witness = None
    return RecoveryReport(s.n, tuple(map(tuple, matrix.tolist())), witness)
