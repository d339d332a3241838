"""Characters and two-dimensional upper-triangular representations.

A character is labelled by a vertex i and a vector lam in the closed unit
ball of the loop space at i; on a degree-1 element xi it evaluates to
<lam, xi_ii> (conjugate-linear in lam, matching the inner product convention
of :mod:`quiveralg.correspondence`).

A two-dimensional representation is labelled by distinct vertices (i, j),
interior vectors lam_i, lam_j, and a vector gamma in the (i, j) arrow space.
On a degree-1 element it acts by

    [[ <lam_i, xi_ii>   <gamma, xi_ij> ]
     [       0          <lam_j, xi_jj> ]]

and extends multiplicatively to monomials and linearly to polynomials.  The
family is contractive exactly when ||gamma||^2 <= 1 - ||lam_i||^2.
``norm_table`` is the public route to the norms of the compressed bimodule
maps T~_k, k = 1..k_max: the closed form, the same norm from a recursion
of the Gram matrix T~_k T~_k*, and the decay bound.  The explicit 2 x d
assembly ``t_tilde_k_matrix``, whose width grows like arrows^k, is the
tests' oracle.
"""

from __future__ import annotations

import numpy as np

from .polynomials import PathPolynomial, _evaluate
from .quiver import Quiver, _check_arrow_count, enumerate_paths

#: two squared norms closer than this are treated as an exactly degenerate
#: pair in the closed-form geometric sum
DEGENERATE_EPS = 1e-13

#: slack for boundary cases of the contractivity inequality in floats
BOUNDARY_SLACK = 1e-12


def _as_vector(x) -> np.ndarray:
    """A parameter as a flat complex vector (a copy); None is the empty vector.
    NaN and infinite entries are refused."""
    vec = np.array(x if x is not None else [], dtype=complex).reshape(-1)
    if not np.isfinite(vec).all():
        raise ValueError("parameters must be finite")
    return vec


def _block_vector(q: Quiver, target: int, source: int, x, name: str) -> tuple[np.ndarray, float]:
    """x checked against the arrow space of block (target, source), with its
    norm; None is the zero vector, whose norm is not computed."""
    dim = q.count(target, source)
    _check_arrow_count(dim)
    if x is None:
        return np.zeros(dim, dtype=complex), 0.0
    vec = _as_vector(x)
    if vec.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}, got {vec.shape[0]}")
    parts = vec.view(float)  # the real and imaginary parts
    scale = float(np.abs(parts).max(initial=0.0))
    # divided by the largest part first, so that no finite vector's norm overflows
    return vec, (scale * float(np.linalg.norm(parts / scale)) if scale else 0.0)


def _ball_vector(q: Quiver, vertex: int, lam, name: str, *, strict: bool) -> tuple[np.ndarray, float]:
    """lam checked against the loop space at the vertex, with its norm."""
    vec, nrm = _block_vector(q, vertex, vertex, lam, name)
    if strict and not nrm < 1.0:
        raise ValueError(f"{name} must lie in the open unit ball, got norm {nrm}")
    if not strict and nrm > 1.0 + BOUNDARY_SLACK:
        raise ValueError(f"{name} must lie in the closed unit ball, got norm {nrm}")
    return vec, nrm


def _check_contractive(t, q1: float) -> None:
    """The family test: refuse a squared norm t of gamma above 1 - q1, with q1
    the squared norm of lam_i, up to ``BOUNDARY_SLACK``.  t may be an array,
    one squared norm per candidate gamma, all checked at once; the first one
    refused is named."""
    t = np.asarray(t)
    over = t[t > 1.0 - q1 + BOUNDARY_SLACK]
    if over.size:
        raise ValueError(
            f"not contractive: ||gamma||^2 = {float(over[0])} exceeds 1 - ||lam_i||^2 = {1.0 - q1}"
        )


class Character:
    """A one-dimensional representation, labelled (vertex, lam)."""

    __slots__ = ("quiver", "vertex", "lam")

    def __init__(self, quiver: Quiver, vertex: int, lam=None) -> None:
        quiver._check_vertex(vertex)
        self.quiver = quiver
        self.vertex = vertex
        self.lam, _ = _ball_vector(quiver, vertex, lam, "lam", strict=False)

    @property
    def interior_flag(self) -> bool:
        """True when lam sits in the open ball.

        Metadata only: boundary characters fail to extend continuously to the
        weak-star closed algebra, but no analytic check is performed here.
        """
        return bool(np.linalg.norm(self.lam) < 1.0)

    def __repr__(self) -> str:
        return f"Character(vertex={self.vertex}, lam={self.lam.tolist()!r})"


def char_eval(c: Character, p: PathPolynomial) -> complex:
    """Evaluate a character on a path polynomial.

    Vertex monomials give the indicator of the character's vertex; an arrow
    contributes conj(lam[index]) when it loops at that vertex and kills the
    monomial otherwise; monomials multiply and the extension is linear.
    """
    if p.quiver != c.quiver:
        raise ValueError("polynomial lives over a different quiver")
    total = _evaluate(
        p,
        lambda v: np.array([[1.0 + 0j if v == c.vertex else 0j]]),
        lambda a: np.array([[np.conj(c.lam[a.index]) if a.source == a.target == c.vertex else 0j]]),
        np.zeros((1, 1), dtype=complex),
    )
    return complex(total[0, 0])


class TwoDimRep:
    """Parameters (i, j, lam_i, lam_j, gamma) of an upper-triangular pair."""

    __slots__ = ("quiver", "i", "j", "lam_i", "lam_j", "gamma")

    def __init__(self, quiver: Quiver, i: int, j: int, lam_i=None, lam_j=None, gamma=None):
        quiver._check_vertex(i, j)
        if i == j:
            raise ValueError("the two diagonal vertices must be distinct")
        self.quiver = quiver
        self.i = i
        self.j = j
        self.lam_i, nrm_i = _ball_vector(quiver, i, lam_i, "lam_i", strict=True)
        self.lam_j, _ = _ball_vector(quiver, j, lam_j, "lam_j", strict=True)
        self.gamma, nrm_g = _block_vector(quiver, i, j, gamma, "gamma")
        # a product, not a power: past 1e154 a norm squares to inf, where ** would raise
        _check_contractive(nrm_g * nrm_g, nrm_i**2)

    def squared_params(self) -> tuple[float, float, float]:
        """(q1, q2, t) = squared norms of lam_i, lam_j, gamma."""
        return (
            float(np.linalg.norm(self.lam_i) ** 2),
            float(np.linalg.norm(self.lam_j) ** 2),
            float(np.linalg.norm(self.gamma) ** 2),
        )

    def __repr__(self) -> str:
        return (
            f"TwoDimRep(i={self.i}, j={self.j}, lam_i={self.lam_i.tolist()!r}, "
            f"lam_j={self.lam_j.tolist()!r}, gamma={self.gamma.tolist()!r})"
        )


def membership_G(q: Quiver, i: int, j: int, lam_i, lam_j, gamma) -> bool:
    """Classify candidate parameters: True iff :class:`TwoDimRep` accepts them,
    that is, the shapes match the quiver, i != j, lam_i and lam_j lie in the
    open unit ball, and ||gamma||^2 <= 1 - ||lam_i||^2 (up to float slack).
    Not exported; it stays for perfbench's tracer until ROADMAP item 8."""
    try:
        TwoDimRep(q, i, j, lam_i, lam_j, gamma)
    except ValueError:
        return False
    return True


def _arrow_matrix(i, j, lam_i, lam_j, gamma, a) -> np.ndarray:
    m = np.zeros((2, 2), dtype=complex)
    if a.target == i and a.source == i:
        m[0, 0] = np.conj(lam_i[a.index])
    elif a.target == i and a.source == j:
        m[0, 1] = np.conj(gamma[a.index])
    elif a.target == j and a.source == j:
        m[1, 1] = np.conj(lam_j[a.index])
    return m


def rho_eval(r: TwoDimRep, p: PathPolynomial) -> np.ndarray:
    """Evaluate the representation on a path polynomial as a 2x2 matrix."""
    if p.quiver != r.quiver:
        raise ValueError("polynomial lives over a different quiver")
    return _evaluate(
        p,
        lambda v: np.diag([1.0 + 0j if v == r.i else 0j, 1.0 + 0j if v == r.j else 0j]),
        lambda a: _arrow_matrix(r.i, r.j, r.lam_i, r.lam_j, r.gamma, a),
        np.zeros((2, 2), dtype=complex),
    )


def t_tilde_k_matrix(q: Quiver, i: int, j: int, lam_i, lam_j, gamma, k: int) -> np.ndarray:
    """The k-fold compressed map as an explicit 2 x d matrix.

    The columns are the length-k paths of ``enumerate_paths`` based at i or
    j, in its order: T~_{k+1} = T~ (I (x) T~_k) on the balanced path basis,
    all other bases balanced away by the two-vertex diagonal action.  A
    path's column is its first arrow's matrix at the slot of its base (0
    for i, 1 for j), multiplied on the left by its later arrows' matrices.
    No contractivity is assumed, so this also measures parameters outside
    the admissible family.  Like ``enumerate_paths``, it refuses graphs with
    more than ``PATH_LIMIT`` paths of length <= k or more than
    ``PATH_TOKEN_LIMIT`` arrows in them, and, like ``TwoDimRep``, i == j.
    Not exported; it stays for perfbench's tracer until ROADMAP item 8.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if i == j:
        raise ValueError("the two diagonal vertices must be distinct")
    lam_i, lam_j, gamma = _as_vector(lam_i), _as_vector(lam_j), _as_vector(gamma)
    if lam_i.shape[0] != q.count(i, i) or lam_j.shape[0] != q.count(j, j) or gamma.shape[0] != q.count(i, j):
        raise ValueError("parameter dimensions do not match the quiver blocks")
    cols = []
    for p in enumerate_paths(q, k):
        if p.length == k and p.base in (i, j):
            first, *rest = (_arrow_matrix(i, j, lam_i, lam_j, gamma, a) for a in p.arrows)
            col = first[:, 0 if p.base == i else 1]
            for m in rest:
                col = m @ col
            cols.append(col)
    return np.column_stack(cols) if cols else np.zeros((2, 0), dtype=complex)


def t_tilde_product(r: TwoDimRep) -> np.ndarray:
    """The 2x2 product T~ T~*, in closed form diag(q1 + t, q2).

    The explicitly assembled product ``t_tilde_k_matrix(..., 1)`` times its
    adjoint is the independent route; the tests compare the two.
    """
    q1, q2, t = r.squared_params()
    return np.diag([q1 + t, q2]).astype(complex)


def _closed_norm(q1: float, q2: float, t: float, k: int) -> float:
    geometric = k * q1 ** (k - 1) if abs(q1 - q2) < DEGENERATE_EPS else (q1**k - q2**k) / (q1 - q2)
    return float(np.sqrt(max(q1**k + t * geometric, q2**k)))


def t_tilde_k_norm_closed(r: TwoDimRep, k: int) -> float:
    """Closed-form norm of the k-fold compressed map:

        ||T~_k||^2 = max(q1^k + t * (q1^{k-1} + q1^{k-2} q2 + ... + q2^{k-1}),
                         q2^k)

    with q1, q2, t the squared norms of lam_i, lam_j, gamma.  The geometric
    sum telescopes to (q1^k - q2^k) / (q1 - q2); the degenerate case q1 = q2
    uses the limit value k * q1^{k-1}.
    Not exported; it stays for perfbench's tracer until ROADMAP item 8.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return _closed_norm(*r.squared_params(), k)


def _direct_norms(r: TwoDimRep, k_max: int) -> list[float]:
    """The norms of ``t_tilde_k_norm_direct`` for k = 1..k_max, from one sweep."""
    if k_max < 1:
        raise ValueError("k must be at least 1")
    # (target slot, source slot, values): the arrows into i in arrows() order, then j's loops
    blocks = [(0, 0, r.lam_i), (0, 1, r.gamma)][:: 1 if r.i < r.j else -1] + [(1, 1, r.lam_j)]
    dst, src = (np.repeat([b[slot] for b in blocks], [len(b[2]) for b in blocks]) for slot in (0, 1))
    mats = np.zeros((len(dst), 2, 2), dtype=complex)
    mats[np.arange(len(dst)), dst, src] = np.concatenate([b[2] for b in blocks]).conj()
    adjoints = mats.conj().transpose(0, 2, 1)
    n_i = len(dst) - len(r.lam_j)  # the arrows into i; each target's run is summed from 0 in order
    sums = []
    for k in range(k_max):  # G_1 sums c_a c_a* = M_a M_a*, as M_a is zero off the column at a's source
        terms = mats @ gram[src] @ adjoints if k else mats @ adjoints
        gram = np.stack([np.add.reduce(run, axis=0, initial=0) for run in (terms[:n_i], terms[n_i:])])
        sums.append(gram.sum(0))
    return [float(np.sqrt(max(e, 0.0))) for e in np.linalg.eigvalsh(np.array(sums))[:, -1]]


def t_tilde_k_norm_direct(r: TwoDimRep, k: int) -> float:
    """Norm of the k-fold compressed map from its Gram matrix T~_k T~_k*.

    The columns of ``t_tilde_k_matrix`` are balanced paths, which end at i
    or j; the Gram matrix is one 2 x 2 block per end, at slot 0 for i and 1
    for j.  With M_a the matrix of the representation on the arrow a and
    c_a its column at the slot of a's source, it starts from G_1[w] = sum
    of c_a c_a* over the arrows a: v -> w and grows by

        G_{k+1}[w] = sum over arrows a: v -> w of M_a G_k[v] M_a*.

    The norm is the square root of the largest eigenvalue of G_k[i] +
    G_k[j], the last of a sweep over 1..k.  M_a is zero outside the blocks
    (i, i), (i, j) and (j, j), so only their arrows are read, as one stack:
    k_max - 1 steps, O(k_max * (c_ii + c_ij + c_jj)), give every k <= k_max.
    No column is built, and the closed form in q1, q2 and t is not used.
    Not exported; it stays for perfbench's tracer until ROADMAP item 8.
    """
    return _direct_norms(r, k)[-1]


def norm_table(r: TwoDimRep, k_max: int) -> list[tuple[float, float, float]]:
    """One (closed, direct, bound) row per k = 1..k_max, from one sweep and
    one read of q1, q2 and t: the norm of T~_k by ``t_tilde_k_norm_closed``
    and by ``t_tilde_k_norm_direct``, and the decay bound q^k + k t q^{k-1}
    with q = max(q1, q2).  The squared norm never exceeds the bound, which
    tends to zero: that makes the representation extend continuously to the
    weak-star closure.  Refuses k_max < 1, and a diagonal vector outside the
    open ball (not the pure regime), with ``ValueError``.
    """
    q1, q2, t = r.squared_params()
    if not (q1 < 1.0 and q2 < 1.0):
        raise ValueError("not in the pure regime: both diagonal vectors must be interior")
    q = max(q1, q2)
    direct = _direct_norms(r, k_max)
    return [(_closed_norm(q1, q2, t, k), d, q**k + k * t * q ** (k - 1)) for k, d in enumerate(direct, 1)]
