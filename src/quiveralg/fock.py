"""Depth-truncated Fock space on the path basis, and its shift operators.

The basis of ``FockSpace(q, depth)`` is every path of length <= depth, in the
canonical enumeration order; the basis is orthonormal, so operators are plain
(sparse) matrices and adjoints are conjugate transposes.  The space holds the
basis as arrays (each path's length, end vertex, parent and last arrow), not
as ``Path`` objects; the tuple ``FockSpace.basis`` is built only on first use.

A creation operator prepends one more arrow at the target end of a path:
paths of length ``depth`` are mapped to zero.  Identities that hold on the
full (untruncated) space are therefore only asserted on the sub-block of
paths of length <= depth - 1, where the truncation is invisible.

Every path of length >= 1 has exactly one parent (itself without its last
arrow), so a creation operator is a weighted shift: each row holds at most
one entry and the columns are orthogonal.  ``operator_norm`` takes the first
of three routes that applies:

1. at most one stored entry in every row: the largest column 2-norm, which
   is the exact norm, in O(nnz) (every creation operator, and every
   covariance block, which is diagonal);
2. dimension below ``DENSE_SVD_LIMIT``: a dense SVD;
3. otherwise: power iteration on mat* mat, which raises ``RuntimeError``
   when it does not converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .correspondence import CorrespondenceElement, DiagonalElement, inner_product
from .polynomials import PathPolynomial
from .quiver import Arrow, Path, Quiver, _path_tree, enumerate_paths

#: matrices at least this large go to power iteration instead of dense SVD
DENSE_SVD_LIMIT = 2000

#: default truncation depth
DEFAULT_DEPTH = 4


class FockSpace:
    """The span of all paths of length <= depth, with its canonical basis.

    Basis vector k is the k-th path of ``enumerate_paths(quiver, depth)``.
    The space is defined by four arrays from ``quiver._path_tree``, and no
    ``Path`` object is built for it: ``lengths[k]`` and ``targets[k]`` are
    the length and end vertex of path k, and path n + r (n vertices) is path
    ``parent[r]`` followed by the arrow at position ``last_arrow[r]`` of
    ``tuple(quiver.arrows())``.  ``basis``, the tuple of those paths, is
    built on first use and cached.  There is no ``index`` attribute: a
    path's position is its place in ``basis``.
    Graphs with more than ``PATH_LIMIT`` paths up to ``depth`` are refused
    with ``ValueError`` before anything is allocated.
    """

    __slots__ = (
        "quiver", "depth", "lengths", "targets", "parent", "last_arrow", "_basis",
        "_arrow_ops",
    )

    def __init__(self, quiver: Quiver, depth: int = DEFAULT_DEPTH) -> None:
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.quiver = quiver
        self.depth = depth
        self.parent, self.last_arrow, self.lengths, self.targets = _path_tree(quiver, depth)
        self._basis: Optional[tuple[Path, ...]] = None
        self._arrow_ops: dict[Arrow, sp.csr_matrix] = {}

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def basis(self) -> tuple[Path, ...]:
        """The basis paths in order, built on first use."""
        if self._basis is None:
            self._basis = tuple(enumerate_paths(self.quiver, self.depth))
        return self._basis

    def length_indices(self, max_len: int) -> np.ndarray:
        """Positions of the basis paths of length <= max_len."""
        return np.flatnonzero(self.lengths <= max_len)

    def arrow_creation(self, a: Arrow) -> sp.csr_matrix:
        """Cached creation matrix of a single basis arrow."""
        cached = self._arrow_ops.get(a)
        if cached is None:
            cached = creation_operator(self, CorrespondenceElement.basis(self.quiver, a)).matrix
            self._arrow_ops[a] = cached
        return cached

    def __repr__(self) -> str:
        return f"FockSpace(n={self.quiver.n}, depth={self.depth}, dim={self.dim})"


@dataclass
class FockOperator:
    """An operator on a FockSpace, stored sparse in the path basis."""

    space: FockSpace
    matrix: sp.spmatrix


def creation_operator(space: FockSpace, xi: CorrespondenceElement) -> FockOperator:
    """The truncated shift sending path p to sum_a xi[a] * (a after p)."""
    if xi.quiver != space.quiver:
        raise ValueError("element lives over a different quiver")
    q = space.quiver
    # blocks in (target, source) order list the coefficients in arrows() order
    coeffs = np.concatenate(
        [xi.blocks[t][s] for t in q.vertices() for s in q.vertices()]
    ).astype(complex, copy=False)
    data = coeffs[space.last_arrow]
    keep = data != 0
    # rows 0..n-1 (the vertices) are empty; row n + r holds keep[r] entries
    indptr = np.concatenate((np.zeros(q.n + 1, dtype=np.intp), np.cumsum(keep)))
    mat = sp.csr_matrix(
        (data[keep], space.parent[keep], indptr), shape=(space.dim, space.dim)
    )
    return FockOperator(space, mat)


def diag_operator(space: FockSpace, d: DiagonalElement) -> FockOperator:
    """The diagonal action: entry d_{target(p)} at every basis path p."""
    if d.n != space.quiver.n:
        raise ValueError("diagonal size does not match the quiver")
    vals = d.entries[space.targets]
    return FockOperator(space, sp.diags(vals, format="csr", dtype=complex))


def evaluate_polynomial(space: FockSpace, p: PathPolynomial) -> FockOperator:
    """Represent a path polynomial: vertex monomials become the corner
    projections, arrows their creation operators, longer monomials the
    corresponding operator products, all extended linearly."""
    if p.quiver != space.quiver:
        raise ValueError("polynomial lives over a different quiver")
    total = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for path, coeff in p.items():
        if path.length == 0:
            mono = diag_operator(
                space, DiagonalElement.unit(space.quiver.n, path.base)
            ).matrix
        else:
            mono = reduce(
                lambda acc, a: space.arrow_creation(a) @ acc,
                path.arrows[1:],
                space.arrow_creation(path.arrows[0]),
            )
        total = total + coeff * mono
    return FockOperator(space, total.tocsr())


def _power_iteration_norm(mat, tol: float, max_iter: int = 20000) -> float:
    """Largest singular value by power iteration on mat* mat.

    Stops once |delta sigma| <= tol; raises RuntimeError after ``max_iter``
    iterations without that.
    """
    rng = np.random.default_rng(0x51B1)
    v = rng.standard_normal(mat.shape[1]) + 1j * rng.standard_normal(mat.shape[1])
    nv = np.linalg.norm(v)
    if nv == 0 or mat.shape[0] == 0 or mat.shape[1] == 0:
        return 0.0
    v /= nv
    mh = mat.conj().T
    sigma = 0.0
    delta = float("inf")
    for _ in range(max_iter):
        w = mh @ (mat @ v)
        lam = max(float(np.real(np.vdot(v, w))), 0.0)
        new_sigma = float(np.sqrt(lam))
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        delta = abs(new_sigma - sigma)
        if delta <= tol:
            return new_sigma
        sigma = new_sigma
    raise RuntimeError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last |delta sigma| = {delta:.3e}, tol = {tol:.3e})"
    )


def _weighted_shift_norm(mat) -> Optional[float]:
    """The largest column 2-norm when every row holds at most one stored
    entry (the columns are then orthogonal, so this is the exact norm);
    None otherwise."""
    if sp.issparse(mat):
        csr = mat.tocsr()
        if np.diff(csr.indptr).max() > 1:
            return None
        sq = np.bincount(csr.indices, weights=np.abs(csr.data) ** 2, minlength=csr.shape[1])
    else:
        dense = np.asarray(mat)
        if np.count_nonzero(dense, axis=1).max() > 1:
            return None
        sq = np.sum(np.abs(dense) ** 2, axis=0)
    return float(np.sqrt(sq.max()))


def operator_norm(op, tol: float = 1e-9) -> float:
    """Largest singular value, by the first route that applies.

    1. At most one stored entry in every row (a weighted shift, such as a
       creation operator or a diagonal block): the largest column 2-norm,
       which is exact, in O(nnz).
    2. Dimension below ``DENSE_SVD_LIMIT``: dense decomposition.
    3. Otherwise power iteration on mat* mat to tolerance ``tol``; it raises
       RuntimeError when it does not converge.

    Accepts a FockOperator, a numpy array, or a scipy sparse matrix.
    """
    mat = op.matrix if isinstance(op, FockOperator) else op
    if mat.shape[0] == 0 or mat.shape[1] == 0:
        return 0.0
    shift_norm = _weighted_shift_norm(mat)
    if shift_norm is not None:
        return shift_norm
    if max(mat.shape) < DENSE_SVD_LIMIT:
        dense = np.asarray(mat.todense()) if sp.issparse(mat) else np.asarray(mat)
        svals = np.linalg.svd(dense, compute_uv=False)
        return float(svals[0]) if svals.size else 0.0
    return _power_iteration_norm(mat, tol)


def check_isometric_covariance(
    space: FockSpace, xi: CorrespondenceElement, eta: CorrespondenceElement
) -> float:
    """Deviation of T_xi* T_eta from the diagonal action of <xi, eta>.

    The two sides agree exactly on the untruncated part, so the norm is taken
    on the sub-block of paths of length <= depth - 1 (the truncation boundary
    row/column is excluded).
    """
    if space.depth == 0:
        raise ValueError("depth too small: the covariance check needs depth >= 1")
    t_xi = creation_operator(space, xi)
    t_eta = creation_operator(space, eta)
    lhs = t_xi.matrix.conj().T @ t_eta.matrix
    rhs = diag_operator(space, inner_product(xi, eta)).matrix
    inner = space.length_indices(space.depth - 1)
    block = (lhs - rhs).tocsr()[inner][:, inner]
    return operator_norm(block)


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


def _max_abs(mat: sp.spmatrix) -> float:
    mat = mat.tocoo()
    return float(np.max(np.abs(mat.data))) if mat.nnz else 0.0


def corner_shift_report(space: FockSpace, vertex: int) -> CornerReport:
    """Verify the corner-shift behaviour of the loops at one vertex."""
    space.quiver._check_vertex(vertex)
    loops = space.quiver.block(vertex, vertex)
    if not loops:
        raise ValueError(f"vertex {vertex} carries no loops")
    if space.depth == 0:
        raise ValueError("depth too small: the corner check needs depth >= 1")
    corner = np.flatnonzero(space.targets == vertex)
    domain = np.flatnonzero(
        (space.targets == vertex) & (space.lengths <= space.depth - 1)
    )
    compressed = [
        space.arrow_creation(a).tocsr()[corner][:, domain] for a in loops
    ]
    eye = sp.identity(len(domain), dtype=complex, format="csr")
    iso_dev = max(_max_abs(b.conj().T @ b - eye) for b in compressed)
    orth_dev = 0.0
    for r, b in enumerate(compressed):
        for b2 in compressed[r + 1 :]:
            orth_dev = max(orth_dev, _max_abs(b.conj().T @ b2))
    range_sum = sum(b @ b.conj().T for b in compressed)
    proj_dev = _max_abs(range_sum @ range_sum - range_sum)
    deficiency = len(corner) - int(round(range_sum.diagonal().sum().real))
    return CornerReport(
        vertex=vertex,
        loop_count=len(loops),
        isometry_deviation=iso_dev,
        orthogonality_deviation=orth_dev,
        projector_deviation=proj_dev,
        range_deficiency=deficiency,
    )
