"""Depth-truncated Fock space on the path basis, and its shift operators.

The basis of ``FockSpace(q, depth)`` is every path of length <= depth, in the
canonical enumeration order; the basis is orthonormal, so operators are plain
(sparse) matrices and adjoints are conjugate transposes.

A creation operator prepends one more arrow at the target end of a path:
paths of length ``depth`` are mapped to zero.  Identities that hold on the
full (untruncated) space are therefore only asserted on the sub-block of
paths of length <= depth - 1, where the truncation is invisible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .correspondence import CorrespondenceElement, DiagonalElement, inner_product
from .polynomials import PathPolynomial
from .quiver import Arrow, Path, Quiver, enumerate_paths

#: matrices at least this large go to power iteration instead of dense SVD
DENSE_SVD_LIMIT = 2000

#: default truncation depth
DEFAULT_DEPTH = 4


class FockSpace:
    """The span of all paths of length <= depth, with its canonical basis."""

    __slots__ = ("quiver", "depth", "basis", "index", "lengths", "targets", "_arrow_ops")

    def __init__(self, quiver: Quiver, depth: int = DEFAULT_DEPTH) -> None:
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.quiver = quiver
        self.depth = depth
        self.basis: tuple[Path, ...] = tuple(enumerate_paths(quiver, depth))
        self.index: dict[Path, int] = {p: k for k, p in enumerate(self.basis)}
        self.lengths = np.array([p.length for p in self.basis])
        self.targets = np.array([p.target for p in self.basis])
        self._arrow_ops: dict[Arrow, sp.csr_matrix] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

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
    rows, cols, data = [], [], []
    arrows_by_source = [list(space.quiver.arrows_from(v)) for v in space.quiver.vertices()]
    for col, p in enumerate(space.basis):
        if p.length == space.depth:
            continue
        for a in arrows_by_source[p.target]:
            z = xi.blocks[a.target][a.source][a.index]
            if z != 0:
                rows.append(space.index[Path(p.base, p.arrows + (a,))])
                cols.append(col)
                data.append(z)
    mat = sp.coo_matrix(
        (np.array(data, dtype=complex), (rows, cols)), shape=(space.dim, space.dim)
    ).tocsr()
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
    """Largest singular value by power iteration on mat* mat."""
    rng = np.random.default_rng(0x51B1)
    v = rng.standard_normal(mat.shape[1]) + 1j * rng.standard_normal(mat.shape[1])
    nv = np.linalg.norm(v)
    if nv == 0 or mat.shape[0] == 0 or mat.shape[1] == 0:
        return 0.0
    v /= nv
    mh = mat.conj().T
    sigma = 0.0
    for _ in range(max_iter):
        w = mh @ (mat @ v)
        lam = max(float(np.real(np.vdot(v, w))), 0.0)
        new_sigma = float(np.sqrt(lam))
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        if abs(new_sigma - sigma) <= tol:
            return new_sigma
        sigma = new_sigma
    return sigma


def operator_norm(op, tol: float = 1e-9) -> float:
    """Largest singular value.

    Dense decomposition below dimension ``DENSE_SVD_LIMIT``, power iteration
    on mat* mat (to tolerance ``tol``) above it.  Accepts a FockOperator, a
    numpy array, or a scipy sparse matrix.
    """
    mat = op.matrix if isinstance(op, FockOperator) else op
    if mat.shape[0] == 0 or mat.shape[1] == 0:
        return 0.0
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
