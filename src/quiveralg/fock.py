"""Depth-truncated Fock space on the path basis, and its shift operators.

The basis of ``FockSpace(q, depth)`` is every path of length <= depth, in the
canonical enumeration order; the basis is orthonormal, so adjoints are
conjugate transposes.  The space holds the basis as arrays (each path's
length, end vertex, parent and last arrow) and builds no ``Path`` object.

A creation operator prepends one more arrow at the target end of a path:
paths of length ``depth`` are mapped to zero.  Identities that hold on the
full (untruncated) space are therefore only asserted on the sub-block of
paths of length <= depth - 1, where the truncation is invisible.

Every path of length >= 1 has exactly one parent (itself without its last
arrow), so a creation operator is a weighted shift: each row holds at most
one entry and the columns are orthogonal.  ``creation_operator`` returns it
as a CSR matrix, but the checks ``verify`` makes (the covariance deviation,
the corner report, the creation-operator norm) build none: they read its
weights, one per path of length >= 1, and the basis arrays with
``bincount``; the norms of all the arrows' basis elements come from one
count over the basis (``_arrow_shift_norms``).  The checks on m elements
are one stacked pass over (m, arrows) coefficient rows: one ``bincount``
keyed by parent and row sums every row's children at once
(``_child_sums``), in the order a single row's ``bincount`` sums them, so
``_covariance_deviations`` and ``_shift_norms`` give each row the value
``check_isometric_covariance`` and ``operator_norm`` of its creation
operator give it alone, bit for bit.  ``scipy.sparse`` is imported only
where a CSR matrix is asked for: ``creation_operator``, ``diag_operator``
and ``evaluate_polynomial``.

``operator_norm`` has two routes, both exact:

1. at most one stored entry in every row: the largest column 2-norm, in
   O(nnz) (every creation operator, and every diagonal block);
2. any other matrix: a dense SVD when both sides are below
   ``DENSE_SVD_LIMIT``; larger ones are refused with ``ValueError`` before
   anything is densified.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from .correspondence import CorrespondenceElement, _diagonal, _inner_rows
# Not called here: perfbench's tracer wraps quiveralg.fock.inner_product and
# its self-test requires every wrapped name to exist.
from .correspondence import inner_product  # noqa: F401
from .polynomials import PathPolynomial, _evaluate
from .quiver import Arrow, Quiver, _path_levels
# Not called here: perfbench's tracer wraps quiveralg.fock.enumerate_paths and
# its self-test requires every wrapped name to exist.
from .quiver import enumerate_paths  # noqa: F401

if TYPE_CHECKING:
    import scipy.sparse as sp

#: a matrix that is not a weighted shift gets its norm from a dense SVD only
#: when both sides are below this; larger ones are refused
DENSE_SVD_LIMIT = 2000

#: default truncation depth
DEFAULT_DEPTH = 4


class FockSpace:
    """The span of all paths of length <= depth, with its canonical basis.

    Basis vector k is the k-th path of ``enumerate_paths(quiver, depth)``.
    The space is defined by four arrays, the levels of the level walk
    ``quiver._path_levels`` laid end to end, and no ``Path`` object is built
    for it: ``lengths[k]`` and ``targets[k]`` are the length and end vertex
    of path k, and path n + r (n vertices) is path ``parent[r]`` followed by
    the arrow at position ``last_arrow[r]`` of ``tuple(quiver.arrows())``.
    Creation operators and the checks on them are computed from these
    arrays.  Graphs with more than ``PATH_LIMIT`` paths up to ``depth``, or
    more than ``PATH_TOKEN_LIMIT`` arrows in them, are refused with
    ``ValueError`` before anything is allocated.
    """

    __slots__ = ("quiver", "depth", "lengths", "targets", "parent", "last_arrow")

    def __init__(self, quiver: Quiver, depth: int = DEFAULT_DEPTH) -> None:
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.quiver = quiver
        self.depth = depth
        empty = np.zeros(0, dtype=np.intp)
        parent, places, targets = [empty], [empty], [np.arange(quiver.n, dtype=np.intp)]
        start = 0  # the position of the level before
        for rows, level_places, ends in _path_levels(quiver, depth):
            parent.append(rows + start)
            places.append(level_places)
            start += len(targets[-1])
            targets.append(ends)
        self.lengths = np.repeat(np.arange(len(targets), dtype=np.intp), [len(t) for t in targets])
        self.targets = np.concatenate(targets)
        self.parent = np.concatenate(parent)
        # a level's places index out_arrow, which only a walk bounds
        out_arrow = quiver._by_source[0] if len(places) > 1 else empty
        self.last_arrow = out_arrow[np.concatenate(places)]

    @property
    def dim(self) -> int:
        return len(self.lengths)

    def __repr__(self) -> str:
        return f"FockSpace(n={self.quiver.n}, depth={self.depth}, dim={self.dim})"


def creation_operator(space: FockSpace, xi: CorrespondenceElement) -> sp.csr_matrix:
    """The truncated shift sending path p to sum_a xi[a] * (a after p), as a
    CSR matrix: row n + r (n vertices) holds the weight of path n + r's
    last arrow in column ``space.parent[r]``, zero weights dropped."""
    import scipy.sparse as sp

    if xi.quiver != space.quiver:
        raise ValueError("element lives over a different quiver")
    # last_arrow and xi.vector both index the arrows in arrows() order
    w = xi.vector[space.last_arrow]
    keep = w != 0
    # rows 0..n-1 (the vertices) are empty; row n + r holds keep[r] entries
    indptr = np.concatenate((np.zeros(space.quiver.n + 1, dtype=np.intp), np.cumsum(keep)))
    return sp.csr_matrix((w[keep], space.parent[keep], indptr), shape=(space.dim, space.dim))


def diag_operator(space: FockSpace, d) -> sp.csr_matrix:
    """The diagonal action of d (a length-n vector) as a CSR matrix: entry
    d_{target(p)} at every basis path p."""
    import scipy.sparse as sp

    vals = _diagonal(d, space.quiver)[space.targets]
    return sp.diags(vals, format="csr", dtype=complex)


def evaluate_polynomial(space: FockSpace, p: PathPolynomial) -> sp.csr_matrix:
    """Represent a path polynomial as a CSR matrix: vertex monomials become
    the corner projections, arrows their creation operators, longer
    monomials the corresponding operator products, all extended linearly."""
    import scipy.sparse as sp

    if p.quiver != space.quiver:
        raise ValueError("polynomial lives over a different quiver")

    @cache
    def arrow_op(a: Arrow) -> sp.csr_matrix:
        return creation_operator(space, CorrespondenceElement.basis(space.quiver, a))

    vertices = np.arange(space.quiver.n)  # vertices == v is the indicator of v
    zero = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    return _evaluate(p, lambda v: diag_operator(space, vertices == v), arrow_op, zero).tocsr()


def _column_norm(cols: np.ndarray, vals: np.ndarray, width: int) -> float:
    """The largest column 2-norm of a matrix with ``width`` columns whose
    entries ``vals`` sit in columns ``cols``."""
    return float(np.sqrt(np.bincount(cols, np.abs(vals) ** 2, minlength=width).max()))


def operator_norm(op) -> float:
    """Largest singular value, by one of two exact routes.

    1. At most one stored entry in every row (a weighted shift, such as a
       creation operator or a diagonal block): the largest column 2-norm,
       in O(nnz).
    2. Any other matrix: a dense SVD when both sides are below
       ``DENSE_SVD_LIMIT``; otherwise ``ValueError`` ("size limit
       exceeded"), raised before anything is densified.

    Accepts a scipy sparse matrix, or anything ``np.asarray`` reads as an
    array.  Input that is not 2-D, or that stores a NaN or infinite entry,
    is refused with ``ValueError`` before either route runs.
    """
    # a sparse matrix exists only once scipy.sparse has been imported
    sparse_mod = sys.modules.get("scipy.sparse")
    sparse = sparse_mod is not None and sparse_mod.issparse(op)
    mat = op if sparse else np.asarray(op)
    if len(mat.shape) != 2:
        raise ValueError(f"operator_norm needs a 2-D matrix, got shape {mat.shape}")
    if sparse:
        coo = mat.tocoo()
        rows, cols, vals = coo.row, coo.col, coo.data
    else:
        rows, cols = np.nonzero(mat)
        vals = mat[rows, cols]
    if not np.isfinite(vals).all():
        raise ValueError("operator_norm needs finite entries, got NaN or infinity")
    if mat.shape[0] == 0 or mat.shape[1] == 0:
        return 0.0
    if np.bincount(rows, minlength=mat.shape[0]).max() <= 1:
        return _column_norm(cols, vals, mat.shape[1])
    if max(mat.shape) >= DENSE_SVD_LIMIT:
        raise ValueError(
            f"size limit exceeded: the norm of a {mat.shape[0]}x{mat.shape[1]} matrix "
            f"that is not a weighted shift needs a dense SVD, taken only below "
            f"{DENSE_SVD_LIMIT} on both sides"
        )
    dense = mat.toarray() if sparse else mat
    return float(np.linalg.svd(dense, compute_uv=False)[0])


def _arrow_shift_norms(space: FockSpace) -> np.ndarray:
    """The creation-operator norm of every arrow's basis element, in
    ``arrows()`` order, read off the path tree in one pass.

    The shift of the basis element at arrow a has weight 1 at every path
    whose last arrow is a, in its parent's column, so its norm is the square
    root of the largest count of paths sharing one (last arrow, parent) key;
    no per-arrow vector is built.
    """
    dim = space.dim
    keys, counts = np.unique(space.last_arrow.astype(np.int64) * dim + space.parent, return_counts=True)
    largest = np.zeros(space.quiver.total_arrows())
    np.maximum.at(largest, keys // dim, counts)
    return np.sqrt(largest)


def _child_sums(space: FockSpace, values: np.ndarray) -> np.ndarray:
    """For each row of an (m, dim - n) stack of values on the paths of
    length >= 1, the sum over the children of every path of length <= depth
    - 1 (the paths that have children, a prefix of the basis), as an (m,
    width) array.  One ``bincount`` keyed ``parent + width * row`` adds each
    path's children in the order of r, as a ``bincount`` of that row alone
    would."""
    m, width = len(values), int(np.searchsorted(space.lengths, space.depth))
    keys = (space.parent + width * np.arange(m)[:, None]).ravel()
    return np.bincount(keys, values.ravel(), minlength=m * width).reshape(m, width)


def _shift_norms(space: FockSpace, weights: np.ndarray) -> np.ndarray:
    """The norms of the creation operators with these (m, dim - n) weight
    rows: column parent[r] holds weights[r], so each norm is its row's
    largest column 2-norm (0 at depth 0, where no column holds one)."""
    return np.sqrt(_child_sums(space, np.abs(weights) ** 2).max(axis=1, initial=0.0))


def check_isometric_covariance(
    space: FockSpace, xi: CorrespondenceElement, eta: CorrespondenceElement
) -> float:
    """Deviation of T_xi* T_eta from the diagonal action of <xi, eta>.

    The two sides agree exactly on the untruncated part, so the norm is taken
    on the sub-block of paths of length <= depth - 1 (the truncation boundary
    row/column is excluded).  Both sides are diagonal: entry p of T_xi* T_eta
    is the sum of conj(x[r]) y[r] over the children n + r of path p, summed
    in the order of r, and the norm is the largest modulus on the diagonal.
    This is the one-row case of ``_covariance_deviations``.
    """
    if xi.quiver != space.quiver or eta.quiver != space.quiver:
        raise ValueError("element lives over a different quiver")
    return float(_covariance_deviations(space, xi.vector[None], eta.vector[None])[0])


def _covariance_deviations(space: FockSpace, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``check_isometric_covariance`` of each row pair of two (m, arrows)
    coefficient stacks, in one pass; row k's deviation is the one its pair
    gives alone, bit for bit."""
    if space.depth == 0:
        raise ValueError("depth too small: the covariance check needs depth >= 1")
    x, y = xs[:, space.last_arrow], ys[:, space.last_arrow]  # the creation-operator weights
    gram_re = _child_sums(space, x.real * y.real + x.imag * y.imag)
    gram_im = _child_sums(space, x.real * y.imag - x.imag * y.real)
    rhs = _inner_rows(space.quiver, xs, ys)[:, space.targets[: gram_re.shape[1]]]
    dev = np.empty(gram_re.shape, dtype=complex)
    dev.real = gram_re - rhs.real
    dev.imag = gram_im - rhs.imag
    return np.sqrt(np.max(np.abs(dev) ** 2, axis=1))


@dataclass
class CornerReport:
    """Exact checks on the loop shifts compressed to one vertex corner.

    The corner at vertex i is spanned by the paths ending at i.  Each loop at
    i acts there as an isometry (on the sub-block of length <= depth - 1),
    different loops have orthogonal ranges, and the ranges never fill the
    corner (the vertex path itself is left over).
    """

    vertex: int
    loop_count: int
    isometry_deviation: float
    orthogonality_deviation: float
    projector_deviation: float
    range_deficiency: int

    @property
    def ok(self) -> bool:
        return (
            self.isometry_deviation == 0.0
            and self.orthogonality_deviation == 0.0
            and self.projector_deviation == 0.0
            and self.range_deficiency >= 1
        )


def corner_shift_report(space: FockSpace, vertex: int) -> CornerReport:
    """Verify the corner-shift behaviour of the loops at one vertex.

    Loop a compressed to the corner is the 0/1 matrix B_a with rows the
    corner paths, columns the domain (corner paths of length <= depth - 1),
    and a one at (n + r, parent[r]) for every child n + r in the corner
    whose last arrow is a and whose parent is in the domain.  With c_a(p)
    such children at domain path p, read off the arrays:

    * B_a* B_a is diagonal with entries c_a(p), so the isometry deviation is
      the largest |c_a(p) - 1|;
    * B_a* B_b (a != b) counts the rows the two ranges share, and a row has
      one last arrow, so the orthogonality deviation is the largest number
      of extra loops whose range holds one row;
    * the range sum R = sum_a B_a B_a* is one all-ones block of size c_a(p)
      per loop a and domain path p, and R^2 - R holds c_a(p) - 1 there, so
      the projector deviation is the largest c_a(p) - 1 (0 if none is
      larger than 1);
    * the range deficiency is the corner size minus the trace of R, which
      counts every row once for each loop whose range holds it.
    """
    q = space.quiver
    loops = q.count(vertex, vertex)
    if not loops:
        raise ValueError(f"vertex {vertex} carries no loops")
    if space.depth == 0:
        raise ValueError("depth too small: the corner check needs depth >= 1")
    in_corner = space.targets == vertex
    in_domain = in_corner & (space.lengths <= space.depth - 1)
    kept = in_corner[q.n:] & in_domain[space.parent]
    first = q.block_start(vertex, vertex)  # the loops' positions in arrows() start here
    iso_dev = proj_dev = 0.0
    holders = np.zeros(len(kept), dtype=np.intp)  # loops whose range holds each row
    for a in range(first, first + loops):
        rows = kept & (space.last_arrow == a)
        holders += rows
        children = np.bincount(space.parent[rows], minlength=space.dim)[in_domain]
        iso_dev = max(iso_dev, float(np.max(np.abs(children - 1))))
        proj_dev = max(proj_dev, float(np.max(children) - 1))
    return CornerReport(
        vertex=vertex,
        loop_count=loops,
        isometry_deviation=iso_dev,
        orthogonality_deviation=float(np.max(holders, initial=1) - 1),
        projector_deviation=proj_dev,
        range_deficiency=int(np.count_nonzero(in_corner) - holders.sum()),
    )
