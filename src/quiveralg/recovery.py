"""Reconstruct a multiplicity matrix from a scrambled algebra presentation.

A scrambled presentation hides a quiver behind two kinds of relabelling: a
vertex permutation tau (the idempotent labelled a is the vertex idempotent of
tau(a)) and an arbitrary unitary change of basis inside every arrow block.
The generators handed out are the unitary images of the arrow basis, in
shuffled order.  Exactly these are the degrees of freedom under which the
multiplicity matrix is known to be invariant, so recovering it from the
presentation mechanizes that invariance.

A generator is a degree-1 element: a vector in the arrow space of one block
(i, j), held as a coefficient row over its arrow indices (as wide as the
largest arrow index of its label pair's generators, plus one).  The
generator table has one record per row shape (k generators x w arrows): the
label pairs (m, 2) whose rows have that shape, in row-major order, their
generator indices (m, k), ascending, rows (m, k, w) and ranks (m,).  One
``searchsorted`` over the sorted pair keys a * n + b finds a pair's record
and slot.  ``scramble`` fills a record per block size from one stacked QR,
its rows the columns of the block unitaries; the public constructor reads
polynomials into rows with ``_block_support`` and groups its blocks by row
shape.  One table build then reads a block's label pair (a, b) off the
idempotents, whose vertices are i and j, so p_a * g * p_b = g and every
other pair compresses g to zero; the pair read back through those vertices
is the block.  It takes one ``isfinite`` and one stacked SVD per record: a
slot's rank counts its singular values above ``RANK_TOL`` times its largest
one, so generators scaled by one nonzero constant, which span the same
algebra, count the same.

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

Two spot routes on the algebra check the vector routes once per presentation:
the constructor multiplies generator 0 by its pair's idempotents, p_a * g *
p_b == g, and ``recover`` evaluates with ``rho_eval`` the ``TwoDimRep`` of the
first row at the first labelled off-diagonal pair on each arrow of its block;
times V.T, this must give the batched row.  ``perfbench`` counts both.

The counts meet the graph once, in ``_check_counts``: their matrix by label
pair, read through tau^-1 (label a names tau(a)), must be the quiver's block
sizes, or ``RecoveryError`` names the first block, in row-major order, that
differs.  That comparison certifies tau^-1, the witness ``recover`` returns
for every presentation.  Beyond that the code reads of the graph only the
vertex each idempotent names and the vertex count.  No isomorphism search
runs, so ``recover`` caps no vertex count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .correspondence import _complex_gaussians
from .polynomials import PathPolynomial
from .quiver import Arrow, Quiver, arrow_path
from .reps import TwoDimRep, _check_contractive, rho_eval

# re-exported for perfbench/tracing.py, which wraps both names here; its
# self-tests expect every wrapped name to exist
from .quiver import are_isomorphic  # noqa: F401
from .reps import membership_G  # noqa: F401

#: singular values at most this times the largest one of their matrix count
#: as numerical zero in rank computations
RANK_TOL = 1e-8

#: the rho_eval spot check's largest admitted difference from the batched
#: representation row, relative to the largest coefficient of the pair's rows
_SPOT_TOL = 1e-10

#: ``scramble`` refuses graphs whose block unitaries hold more entries than
#: this (the sum of c[i][j]^2), before it draws anything
SCRAMBLE_LIMIT = 2**18


class RecoveryError(RuntimeError):
    """The recovered data failed an internal consistency requirement."""


class ProbeMismatchError(RecoveryError):
    """The span probe and the representation probe disagreed."""


@dataclass(eq=False)
class HiddenTruth:
    """Withheld scramble data: the vertex permutation tau, the label a naming
    the vertex tau(a).  For cross-checking only."""

    tau: tuple[int, ...]


class _Record(NamedTuple):
    """The label pairs whose rows have one shape (k, w), in row-major order."""

    pairs: np.ndarray  # (m, 2) label pairs (a, b)
    gens: np.ndarray  # (m, k) generator indices, ascending in each slot
    rows: np.ndarray  # (m, k, w) the generators' coefficient rows
    ranks: np.ndarray  # (m,) the rank of each slot's rows

    def take(self, slots) -> "_Record":
        """The record of these slots: an index array, a mask or a slice."""
        return _Record(*(x[slots] for x in self))


class ScrambledPresentation:
    """What the recovery algorithm is allowed to see.

    ``idempotents[a]`` is the vertex idempotent the label a names (as an
    algebra element).  The generators span the degree-1 part, each supported
    on a single arrow block (i, j); the presentation holds each as the label
    pair of that block and a coefficient row over its arrow indices.  The
    constructor takes the generators as degree-1 polynomials; ``generators``
    builds them back from the rows.  It compares nothing with the graph;
    ``recover`` does.
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
        by_shape: dict[tuple[int, int], list] = {}
        for block, kcs in by_block.items():
            width = 1 + max(m for _, coeffs in kcs for m in coeffs)
            vecs = np.zeros((len(kcs), width), dtype=complex)
            for row, (_, coeffs) in zip(vecs, kcs):
                row[list(coeffs)] = list(coeffs.values())
            by_shape.setdefault(vecs.shape, []).append((block, [k for k, _ in kcs], vecs))
        # (blocks, generator indices, rows) stacked per row shape
        self._tabulate([tuple(map(np.array, zip(*group))) for group in by_shape.values()])

    @classmethod
    def _of_rows(cls, idempotents, groups, hidden_truth: HiddenTruth) -> "ScrambledPresentation":
        """The presentation of generators given as ``_tabulate`` takes them."""
        s = cls.__new__(cls)
        s._label(idempotents, hidden_truth)
        s._tabulate(groups)
        return s

    def _label(self, idempotents, hidden_truth: Optional[HiddenTruth]) -> None:
        self.idempotents = tuple(idempotents)
        self.hidden_truth = hidden_truth
        if not self.idempotents:
            raise ValueError("a presentation needs at least one idempotent label")
        if self.n != self.quiver.n:
            raise ValueError("label count does not match the vertex count")
        # the vertex each label's idempotent names
        vertex = self._vertex = np.array([_idempotent_vertex(p) for p in self.idempotents])
        if len(set(vertex.tolist())) != self.n:
            raise ValueError("duplicate idempotent label")
        self._tau_inv = np.argsort(vertex)  # tau^-1: the label naming each vertex

    def _tabulate(self, groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        """The table of a record per group (blocks (m, 2), generator indices
        (m, k), rows (m, k, w)), each record's pairs in row-major order."""
        records = []
        for blocks, gens, rows in groups:
            # each row is a finite vector in one block, labelled by its ends' labels
            if not np.isfinite(rows).all():
                raise ValueError("generator coefficients must be finite")
            pairs = self._tau_inv[blocks]
            records.append(_Record(pairs, gens, rows, _ranks(rows)).take(np.argsort(pairs @ (self.n, 1))))
        # the polynomial route, on generator 0: p_a * g * p_b == g
        for r in records:
            for slot in np.flatnonzero(r.gens[:, 0] == 0).tolist():
                (a, b), (i, j) = r.pairs[slot].tolist(), self._vertex[r.pairs[slot]].tolist()
                g = _polynomial(self.quiver, i, j, r.rows[slot, 0])
                if self.idempotents[a] * g * self.idempotents[b] != g:
                    raise RecoveryError(f"generator 0 is not fixed by the idempotents of ({a}, {b})")
        self._records = records

    @cached_property
    def _index(self) -> np.ndarray:
        """Each label pair's key a * n + b, record and slot, sorted by key."""
        where = np.concatenate([np.zeros((0, 3), np.int64)] + [
            np.column_stack([r.pairs @ (self.n, 1), np.full(len(r.pairs), t), np.arange(len(r.pairs))])
            for t, r in enumerate(self._records)
        ])
        return where[np.argsort(where[:, 0])].T

    @cached_property
    def generators(self) -> tuple[PathPolynomial, ...]:
        """The generators as degree-1 polynomials, in order, read off the rows."""
        gens: list = [None] * sum(r.gens.size for r in self._records)
        for r in self._records:
            for (i, j), ks, vecs in zip(self._vertex[r.pairs].tolist(), r.gens.tolist(), r.rows):
                for k, row in zip(ks, vecs):
                    gens[k] = _polynomial(self.quiver, i, j, row)
        return tuple(gens)

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
    #: tau^-1, read off the labels and certified by the counts matching the graph's blocks
    witness: tuple[int, ...]


def _ranks(stack: np.ndarray) -> np.ndarray:
    """The rank of each matrix of a stack, by one SVD: the number of its
    singular values above ``RANK_TOL`` times its largest one.  The largest
    is capped at the largest float, so that a singular value that overflows
    to inf still counts."""
    sv = np.linalg.svd(stack, compute_uv=False)
    return (sv > RANK_TOL * np.minimum(sv[..., :1], np.finfo(float).max)).sum(-1)


def _find(s: ScrambledPresentation, a: int, b: int) -> Optional[_Record]:
    """The one-slot record of the label pair (a, b); None if it labels nothing."""
    keys, record, slot = s._index
    k = int(np.searchsorted(keys, a * s.n + b))
    if keys[k:k + 1].tolist() == [a * s.n + b]:
        return s._records[record[k]].take(slot[k:k + 1])


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
    return PathPolynomial._of_valid_paths(q, {arrow_path(Arrow(j, i, m)): z for m, z in enumerate(row.tolist())})


def _haar_unitaries(rng: np.random.Generator, sizes: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Haar unitaries for blocks of these sizes from one ``_complex_gaussians``
    draw, by one stacked QR per size with R's diagonal phase-fixed: size d ->
    (the positions of the blocks of size d, ascending; their (m, d, d) unitaries)."""
    squares = sizes * sizes
    z, starts = _complex_gaussians(rng, squares) / np.sqrt(2.0), np.cumsum(squares) - squares
    unitaries = {}
    for d in np.bincount(sizes).nonzero()[0].tolist():
        where = np.flatnonzero(sizes == d)
        q, r = np.linalg.qr(z[starts[where, None] + np.arange(d * d)].reshape(-1, d, d))
        diag = np.diagonal(r, axis1=1, axis2=2).copy()
        diag[diag == 0] = 1.0
        unitaries[d] = where, q * (diag / np.abs(diag))[:, None, :]
    return unitaries


def scramble(q: Quiver, seed: int) -> ScrambledPresentation:
    """Produce a relabelled presentation of the path algebra of ``q``.

    Deterministic in ``seed``: the vertex permutation, one unitary per
    nonempty arrow block, and the generator order are all drawn from a single
    generator seeded with it.  Graphs whose unitaries would hold more than
    ``SCRAMBLE_LIMIT`` entries are refused before anything is drawn.
    """
    sizes = q._sizes
    # squared as Python ints: an int64 square of a size past 2**31 wraps
    entries = sum(d * d for d in sizes.tolist())
    if entries > SCRAMBLE_LIMIT:
        raise ValueError(f"size limit exceeded: refusing to scramble {entries} > {SCRAMBLE_LIMIT} unitary entries")
    rng = np.random.default_rng(seed)
    tau = tuple(int(v) for v in rng.permutation(q.n))
    draws = _haar_unitaries(rng, sizes)
    # the generators, listed block by block, are the columns of the
    # unitaries; the one listed at p is handed out as generator position[p]
    position = np.argsort(rng.permutation(q.total_arrows()))
    blocks = np.stack(divmod(q._keys, q.n), axis=1)
    groups = []
    for d, (where, u) in draws.items():
        # each block's arrows follow the previous block's, in block order
        ks = position[q._starts[where, None] + np.arange(d)]
        by_index = np.arange(len(where))[:, None], np.argsort(ks, axis=1)
        groups.append((blocks[where], ks[by_index], u.swapaxes(1, 2)[by_index]))
    idempotents = tuple(PathPolynomial.vertex(q, v) for v in tau)
    return ScrambledPresentation._of_rows(idempotents, groups, HiddenTruth(tau))


def probe_character_dimension(s: ScrambledPresentation, a: int) -> int:
    """Dimension of the character-parameter ball at the label a: the table's
    span rank at (a, a).  That is the rank of the compressions p_a * g * p_a
    only because every generator lies in one arrow block (ROADMAP item 4)."""
    _check_label(s, a)
    found = _find(s, a, a)
    return 0 if found is None else found.ranks.item()


def _rep_rows(vecs: np.ndarray) -> np.ndarray:
    """The upper-right entries of a label pair's representations on the
    generators it labels (zero on every other generator), one row each: with
    V the pair's rows, (d, w) or a stack (m, d, w), and Gamma those rows normalized
    (each first divided by its largest real or imaginary part, so no finite
    norm overflows), every gamma must pass the family test; the entries are
    conj(Gamma) @ V.T, and a row whose norm is past the largest double, the
    diagonal entry, raises RecoveryError."""
    scaled = vecs / np.abs(vecs.view(float)).max(axis=-1, keepdims=True, initial=0.0)
    gammas = scaled / np.linalg.norm(scaled, axis=-1, keepdims=True)
    try:
        _check_contractive(np.linalg.norm(gammas, axis=-1) ** 2, 0.0)
    except ValueError as exc:
        raise RecoveryError(f"normalized compression rejected by the family test: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, raised on below
        entries = gammas.conj() @ vecs.swapaxes(-1, -2)
    if not np.isfinite(entries).all():
        raise RecoveryError("representation rows overflow: a generator's coefficient row has norm past the largest double")
    return entries


def _spot_check(s: ScrambledPresentation, pick: _Record, batched: np.ndarray) -> None:
    """``rho_eval`` of the representation of the first row at ``pick``'s first
    pair (a, b), normalized as in ``_rep_rows``, on each arrow of its block,
    times the rows' transpose, must give ``batched``, the first row of
    ``_rep_rows`` at (a, b), or ProbeMismatchError is raised."""
    (a, b), (i, j), vecs = pick.pairs[0].tolist(), s._vertex[pick.pairs[0]].tolist(), pick.rows[0]
    row = vecs[0] / np.abs(vecs[0].view(float)).max()
    rep = TwoDimRep(s.quiver, i, j, gamma=row / np.linalg.norm(row))
    arrows = [PathPolynomial.arrow(s.quiver, Arrow(j, i, m)) for m in range(vecs.shape[1])]
    spot = np.array([rho_eval(rep, x)[0, 1] for x in arrows]) @ vecs.T
    if np.abs(spot - batched).max() > _SPOT_TOL * np.abs(vecs).max():
        raise ProbeMismatchError(f"rho_eval disagrees with the batched representation rows at pair ({a}, {b})")


def _counts(picks: list[_Record]) -> list[np.ndarray]:
    """The ``_rep_rows`` of each record in ``picks``, all built before any is
    ranked; ProbeMismatchError names the first pair, row-major, they miscount."""
    reps = [_rep_rows(r.rows) for r in picks]
    mismatches = []
    for r, rep in zip(picks, reps):
        ranks = _ranks(rep)
        for k in np.flatnonzero(ranks != r.ranks)[:1].tolist():
            mismatches.append((tuple(r.pairs[k].tolist()), r.ranks[k], ranks[k]))
    if mismatches:
        pair, span, rep = min(mismatches)
        raise ProbeMismatchError(f"probes disagree at pair {pair}: span {span}, rep {rep}")
    return reps


def probe_pair_dimension(s: ScrambledPresentation, a: int, b: int) -> int:
    """Dimension of the off-diagonal parameter space at the label pair (a, b),
    counted as in ``recover``: the probes must agree, or ProbeMismatchError."""
    _check_label(s, a)
    _check_label(s, b)
    if a == b:
        raise ValueError("the pair probe needs two distinct labels")
    if (found := _find(s, a, b)) is None:
        return 0
    _counts([found])
    return found.ranks.item()


def _check_label(s: ScrambledPresentation, a: int) -> None:
    if not 0 <= a < s.n:
        raise ValueError(f"label {a} out of range 0..{s.n - 1}")


def _check_counts(q: Quiver, counted: np.ndarray) -> None:
    """Refuse a counted matrix, indexed by vertices, that differs from the
    quiver's block sizes; name the first such block and both sizes."""
    counted, expected = counted.ravel(), np.zeros(q.n * q.n, dtype=np.int64)
    expected[q._keys] = q._sizes
    for k in np.flatnonzero(counted != expected)[:1].tolist():
        raise RecoveryError(
            "recovered matrix is not a vertex relabelling of the source graph: "
            f"block {divmod(k, q.n)} counted {counted[k]}, expected {expected[k]}"
        )


def recover(s: ScrambledPresentation) -> RecoveryReport:
    """Assemble the multiplicity matrix from the probes.

    Every entry is the span rank of its label pair; off the diagonal the
    representation probe must count the same, or ProbeMismatchError names
    the first pair, in row-major order, where the two differ.  Read through
    tau^-1, the label naming each vertex, the matrix must be the graph's, as
    ``_check_counts`` tests, before the ``rho_eval`` spot check runs; that
    comparison certifies tau^-1, which is returned as the witness.
    """
    offs = [r.take(r.pairs[:, 0] != r.pairs[:, 1]) for r in s._records]
    picks = [r for r in offs if len(r.pairs)]
    reps = _counts(picks)
    matrix = np.zeros((s.n, s.n), dtype=np.int64)
    for r in s._records:
        matrix[r.pairs[:, 0], r.pairs[:, 1]] = r.ranks
    _check_counts(s.quiver, matrix[s._tau_inv][:, s._tau_inv])
    if picks:
        # the first labelled off-diagonal pair, in row-major order
        first, rep = min(zip(picks, reps), key=lambda pick: pick[0].pairs[0].tolist())
        _spot_check(s, first, rep[0, 0])
    return RecoveryReport(s.n, tuple(map(tuple, matrix.tolist())), tuple(s._tau_inv.tolist()))
