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
family is contractive exactly when ||gamma||^2 <= 1 - ||lam_i||^2; the
compressed bimodule maps T~_k obey a two-term recursion whose closed-form
norm and decay bound are implemented below.  Two independent routes
cross-check the closed form: a per-vertex recursion of the 2 x 2 Gram
matrix T~_k T~_k*, which costs O(k * arrows), and the explicit 2 x d
matrix assembly, whose width grows like arrows^k and which serves as the
test oracle.
"""

from __future__ import annotations

import numpy as np

from .polynomials import PathPolynomial
from .quiver import Path, Quiver, arrow_path

#: two squared norms closer than this are treated as an exactly degenerate
#: pair in the closed-form geometric sum
DEGENERATE_EPS = 1e-13

#: slack for boundary cases of the contractivity inequality in floats
BOUNDARY_SLACK = 1e-12


def _as_vector(x) -> np.ndarray:
    """A parameter as a flat complex vector (a copy); None is the empty vector."""
    return np.array(x if x is not None else [], dtype=complex).reshape(-1)


def _ball_vector(q: Quiver, vertex: int, lam, name: str, *, strict: bool) -> np.ndarray:
    vec = _as_vector(lam)
    dim = q.c[vertex][vertex]
    if vec.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}, got {vec.shape[0]}")
    nrm = np.linalg.norm(vec)
    if strict and not nrm < 1.0:
        raise ValueError(f"{name} must lie in the open unit ball, got norm {nrm}")
    if not strict and nrm > 1.0 + BOUNDARY_SLACK:
        raise ValueError(f"{name} must lie in the closed unit ball, got norm {nrm}")
    return vec


class Character:
    """A one-dimensional representation, labelled (vertex, lam)."""

    __slots__ = ("quiver", "vertex", "lam")

    def __init__(self, quiver: Quiver, vertex: int, lam=None) -> None:
        quiver._check_vertex(vertex)
        self.quiver = quiver
        self.vertex = vertex
        self.lam = _ball_vector(quiver, vertex, lam, "lam", strict=False)

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
    total = 0j
    for path, coeff in p.items():
        if path.length == 0:
            if path.base == c.vertex:
                total += coeff
            continue
        value = coeff
        for a in path.arrows:
            if a.source == c.vertex and a.target == c.vertex:
                value *= np.conj(c.lam[a.index])
            else:
                value = 0j
                break
        total += value
    return complex(total)


class TwoDimRep:
    """Parameters (i, j, lam_i, lam_j, gamma) of an upper-triangular pair."""

    __slots__ = ("quiver", "i", "j", "lam_i", "lam_j", "gamma")

    def __init__(self, quiver: Quiver, i: int, j: int, lam_i=None, lam_j=None, gamma=None):
        quiver._check_vertex(i)
        quiver._check_vertex(j)
        if i == j:
            raise ValueError("the two diagonal vertices must be distinct")
        self.quiver = quiver
        self.i = i
        self.j = j
        self.lam_i = _ball_vector(quiver, i, lam_i, "lam_i", strict=True)
        self.lam_j = _ball_vector(quiver, j, lam_j, "lam_j", strict=True)
        g = _as_vector(gamma)
        if g.shape[0] != quiver.c[i][j]:
            raise ValueError(
                f"gamma must have dimension {quiver.c[i][j]}, got {g.shape[0]}"
            )
        q1 = float(np.linalg.norm(self.lam_i) ** 2)
        t = float(np.linalg.norm(g) ** 2)
        if t > 1.0 - q1 + BOUNDARY_SLACK:
            raise ValueError(
                f"not contractive: ||gamma||^2 = {t} exceeds 1 - ||lam_i||^2 = {1.0 - q1}"
            )
        self.gamma = g

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
    open unit ball, and ||gamma||^2 <= 1 - ||lam_i||^2 (up to float slack)."""
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
    total = np.zeros((2, 2), dtype=complex)
    for path, coeff in p.items():
        total += coeff * _rho_monomial(r, path)
    return total


def _rho_monomial(r: TwoDimRep, path: Path) -> np.ndarray:
    if path.length == 0:
        return np.diag(
            [1.0 + 0j if path.base == r.i else 0j, 1.0 + 0j if path.base == r.j else 0j]
        )
    m = _arrow_matrix(r.i, r.j, r.lam_i, r.lam_j, r.gamma, path.arrows[0])
    for a in path.arrows[1:]:
        m = _arrow_matrix(r.i, r.j, r.lam_i, r.lam_j, r.gamma, a) @ m
    return m


def t_tilde_k_matrix(q: Quiver, i: int, j: int, lam_i, lam_j, gamma, k: int) -> np.ndarray:
    """The k-fold compressed map as an explicit 2 x d matrix.

    For k = 1 the domain basis consists of the arrows whose source is i
    (paired with the first coordinate) or j (paired with the second); all
    other arrows are balanced away by the two-vertex diagonal action.  Longer
    maps are built column by column from the recursion
    T~_{k+1} = T~ (I (x) T~_k) on the balanced path basis, whose columns come
    in canonical path order.  No contractivity is assumed, so this also
    measures parameters outside the admissible family.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    lam_i, lam_j, gamma = _as_vector(lam_i), _as_vector(lam_j), _as_vector(gamma)
    if lam_i.shape[0] != q.c[i][i] or lam_j.shape[0] != q.c[j][j] or gamma.shape[0] != q.c[i][j]:
        raise ValueError("parameter dimensions do not match the quiver blocks")
    cols: dict[Path, np.ndarray] = {}
    for a in q.arrows():
        if a.source == i:
            slot = 0
        elif a.source == j:
            slot = 1
        else:
            continue
        cols[arrow_path(a)] = _arrow_matrix(i, j, lam_i, lam_j, gamma, a)[:, slot]
    for _ in range(k - 1):
        nxt: dict[Path, np.ndarray] = {}
        for p, col in cols.items():
            for a in q.arrows_from(p.target):
                nxt[Path(p.base, p.arrows + (a,))] = (
                    _arrow_matrix(i, j, lam_i, lam_j, gamma, a) @ col
                )
        cols = nxt
    if not cols:
        return np.zeros((2, 0), dtype=complex)
    ordered = sorted(cols, key=Path.sort_key)
    return np.column_stack([cols[p] for p in ordered])


def t_tilde_product(r: TwoDimRep) -> np.ndarray:
    """The 2x2 product T~ T~*, in closed form diag(q1 + t, q2).

    The explicitly assembled product ``t_tilde_k_matrix(..., 1)`` times its
    adjoint is the independent route; the tests compare the two.
    """
    q1, q2, t = r.squared_params()
    return np.diag([q1 + t, q2]).astype(complex)


def t_tilde_k_norm_closed(r: TwoDimRep, k: int) -> float:
    """Closed-form norm of the k-fold compressed map:

        ||T~_k||^2 = max(q1^k + t * (q1^{k-1} + q1^{k-2} q2 + ... + q2^{k-1}),
                         q2^k)

    with q1, q2, t the squared norms of lam_i, lam_j, gamma.  The geometric
    sum telescopes to (q1^k - q2^k) / (q1 - q2); the degenerate case q1 = q2
    uses the limit value k * q1^{k-1}.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    q1, q2, t = r.squared_params()
    if abs(q1 - q2) < DEGENERATE_EPS:
        geometric = k * q1 ** (k - 1)
    else:
        geometric = (q1**k - q2**k) / (q1 - q2)
    return float(np.sqrt(max(q1**k + t * geometric, q2**k)))


def t_tilde_k_norm_direct(r: TwoDimRep, k: int) -> float:
    """Norm of the k-fold compressed map from its Gram matrix T~_k T~_k*.

    The columns of ``t_tilde_k_matrix`` are indexed by balanced paths; the
    Gram matrix is kept as one 2 x 2 block per end vertex w of those paths.
    It starts from G_1[w] = sum of c_a c_a* over the arrows a: v -> w with
    v = i (column c_a = first column of M_a) or v = j (second column), and
    grows by

        G_{k+1}[w] = sum over arrows a: v -> w of M_a G_k[v] M_a*,

    with M_a the 2 x 2 matrix of the representation on the arrow a.  The
    norm is the square root of the largest eigenvalue of sum_w G_k[w].  No
    column is built, so the cost is O(k * arrows); the route uses the arrow
    matrices only, never the closed form in q1, q2 and t.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    arrows = [
        (a.source, a.target, _arrow_matrix(r.i, r.j, r.lam_i, r.lam_j, r.gamma, a))
        for a in r.quiver.arrows()
    ]
    gram: dict[int, np.ndarray] = {}
    for v, w, m in arrows:
        if v in (r.i, r.j):
            col = m[:, 0 if v == r.i else 1]
            gram[w] = gram.get(w, 0) + np.outer(col, col.conj())
    for _ in range(k - 1):
        nxt: dict[int, np.ndarray] = {}
        for v, w, m in arrows:
            if v in gram:
                nxt[w] = nxt.get(w, 0) + m @ gram[v] @ m.conj().T
        gram = nxt
    total = sum(gram.values(), np.zeros((2, 2), dtype=complex))
    return float(np.sqrt(max(np.linalg.eigvalsh(total)[-1], 0.0)))


def purity_bound(r: TwoDimRep, k: int) -> float:
    """The decay bound q^k + k t q^{k-1} with q = max(q1, q2).

    The squared norm of the k-fold compressed map never exceeds this, and the
    bound tends to zero, which is what makes the representation extend
    continuously to the weak-star closure.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    q1, q2, t = r.squared_params()
    q = max(q1, q2)
    if not (q1 < 1.0 and q2 < 1.0):
        raise ValueError("not in the pure regime: both diagonal vectors must be interior")
    return float(q**k + k * t * q ** (k - 1))
