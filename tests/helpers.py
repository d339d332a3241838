"""Shared draw helpers for the test suite.

Dyadic draws produce coefficients of the form (a + b*i) / 8 with small
integers a, b.  Sums and products of such numbers are exact in double
precision, so algebraic laws (multiplicativity, linearity) can be asserted
with literal equality instead of a tolerance.
"""

import numpy as np
import scipy.sparse as sp

from quiveralg import (
    CorrespondenceElement,
    Path,
    PathPolynomial,
    Quiver,
    TwoDimRep,
    compose,
    enumerate_paths,
    rho_eval,
)


def random_quiver(rng, max_n=3, max_entry=2, min_n=1):
    n = int(rng.integers(min_n, max_n + 1))
    c = rng.integers(0, max_entry + 1, size=(n, n))
    return Quiver(c.tolist())


def random_element(q, rng, scale=1.0):
    return CorrespondenceElement.random(q, rng, scale=scale)


def random_polynomial(q, rng, max_degree=2, terms=4, scale=1.0):
    paths = enumerate_paths(q, max_degree)
    k = min(terms, len(paths))
    picks = rng.choice(len(paths), size=k, replace=False)
    poly = PathPolynomial.zero(q)
    for idx in picks:
        coeff = scale * complex(rng.standard_normal(), rng.standard_normal())
        poly = poly + PathPolynomial.monomial(q, paths[int(idx)], coeff)
    return poly


def dyadic_scalar(rng, denom=8, span=8):
    re = int(rng.integers(-span, span + 1))
    im = int(rng.integers(-span, span + 1))
    return complex(re, im) / denom


def dyadic_polynomial(q, rng, max_degree=2, terms=4):
    paths = enumerate_paths(q, max_degree)
    k = min(terms, len(paths))
    picks = rng.choice(len(paths), size=k, replace=False)
    poly = PathPolynomial.zero(q)
    for idx in picks:
        poly = poly + PathPolynomial.monomial(q, paths[int(idx)], dyadic_scalar(rng))
    return poly


def dyadic_ball_vector(rng, dim, strict=False, denom=8, span=4):
    """Dyadic entries with exactly representable squared norm <= 1 (or < 1)."""
    if dim == 0:
        return np.zeros(0, dtype=complex)
    for _ in range(10000):
        v = np.array([dyadic_scalar(rng, denom, span) for _ in range(dim)])
        sq = float(np.sum(v.real**2 + v.imag**2))
        if (sq < 1.0) if strict else (sq <= 1.0):
            return v
    raise AssertionError("rejection sampling failed to land in the ball")


def two_block_quiver(d_ii, d_ij, d_jj):
    """n = 2 quiver with d_ii loops at 0, d_ij arrows 1 -> 0, d_jj loops at 1."""
    return Quiver([[d_ii, d_ij], [0, d_jj]])


def random_unit_vector(rng, dim):
    if dim == 0:
        return np.zeros(0, dtype=complex)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_contractive_params(rng, d_i, d_g, d_j, boundary=False):
    """Draw (lam_i, lam_j, gamma) with ||gamma||^2 <= 1 - ||lam_i||^2.

    With boundary=True the inequality is saturated (up to rounding).
    """
    lam_i = random_unit_vector(rng, d_i) * (rng.uniform(0.0, 0.95) if d_i else 0.0)
    lam_j = random_unit_vector(rng, d_j) * (rng.uniform(0.0, 0.95) if d_j else 0.0)
    t_max = np.sqrt(max(1.0 - float(np.linalg.norm(lam_i)) ** 2, 0.0))
    radius = t_max if boundary else rng.uniform(0.0, 1.0) * t_max
    gamma = random_unit_vector(rng, d_g) * (radius if d_g else 0.0)
    return lam_i, lam_j, gamma


def random_rep(rng, d_i=2, d_g=2, d_j=2, boundary=False):
    q = two_block_quiver(d_i, d_g, d_j)
    lam_i, lam_j, gamma = random_contractive_params(rng, d_i, d_g, d_j, boundary)
    return TwoDimRep(q, 0, 1, lam_i, lam_j, gamma)


def reference_enumerate_paths(q, max_len):
    """All paths of length <= max_len, level by level: every path of a level
    extended by every arrow leaving its target, in ``arrows_from`` order."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    out = []
    level = [Path(v) for v in q.vertices()]
    out.extend(level)
    for _ in range(max_len):
        level = [
            Path(p.base, p.arrows + (a,))
            for p in level
            for a in q.arrows_from(p.target)
        ]
        out.extend(level)
    return out


def basis_index(paths):
    """Position of every path in a basis sequence."""
    return {p: k for k, p in enumerate(paths)}


def reference_path_tree(q, max_len):
    """(parent, last_arrow, lengths, targets) read off the reference
    enumeration path by path: path n + r is its parent followed by the arrow
    at position last_arrow[r] of ``tuple(q.arrows())``."""
    paths = reference_enumerate_paths(q, max_len)
    index = basis_index(paths)
    position = {a: k for k, a in enumerate(q.arrows())}
    tails = paths[q.n:]
    return (
        np.array([index[Path(p.base, p.arrows[:-1])] for p in tails], dtype=np.intp),
        np.array([position[p.arrows[-1]] for p in tails], dtype=np.intp),
        np.array([p.length for p in paths], dtype=np.intp),
        np.array([p.target for p in paths], dtype=np.intp),
    )


def reference_creation_matrix(space, xi):
    """The creation matrix built path by path on the reference enumeration:
    column p gets xi[a] in the row of (a after p) for every arrow a leaving
    p's target, zero coefficients dropped, paths of length ``depth`` mapped
    to zero."""
    rows, cols, data = [], [], []
    paths = reference_enumerate_paths(space.quiver, space.depth)
    index = basis_index(paths)
    arrows_by_source = [list(space.quiver.arrows_from(v)) for v in space.quiver.vertices()]
    for col, p in enumerate(paths):
        if p.length == space.depth:
            continue
        for a in arrows_by_source[p.target]:
            z = xi.blocks[a.target][a.source][a.index]
            if z != 0:
                rows.append(index[Path(p.base, p.arrows + (a,))])
                cols.append(col)
                data.append(z)
    return sp.coo_matrix(
        (np.array(data, dtype=complex), (rows, cols)), shape=(space.dim, space.dim)
    ).tocsr()


def reference_compressions(s, a, b):
    """The compressions built pair by pair: the coefficient vector of
    p_a * g * p_b for every generator g, with the hidden block the labels
    select and its size."""
    pa, pb = s.idempotents[a], s.idempotents[b]
    (va,) = [p.base for p in pa.terms]
    (vb,) = [p.base for p in pb.terms]
    dim = s.quiver.c[va][vb]
    vecs = []
    for g in s.generators:
        vec = np.zeros(dim, dtype=complex)
        for p, coeff in (pa * g * pb).items():
            vec[p.arrows[0].index] = coeff
        vecs.append(vec)
    return (va, vb), dim, vecs


def signature_multiset(q):
    """Sorted (loops, out-multiplicities, in-multiplicities) of every vertex."""
    n = q.n
    return sorted(
        (
            q.c[v][v],
            sorted(q.c[w][v] for w in range(n) if w != v),
            sorted(q.c[v][w] for w in range(n) if w != v),
        )
        for v in range(n)
    )


def reference_rep_rows(s, reps):
    """The representation rows entry by entry: the upper-right entry of
    ``rho_eval`` of every representation on every generator."""
    return np.array([[rho_eval(r, g)[0, 1] for g in s.generators] for r in reps])


def reference_product(p, r):
    """The product of two polynomials by the double loop over their terms,
    with no shortcut for vertex factors."""
    terms = {}
    for u, cu in p.terms.items():
        for v, cv in r.terms.items():
            w = compose(u, v)
            if w is not None:
                terms[w] = terms.get(w, 0j) + cu * cv
    return PathPolynomial(p.quiver, terms)
