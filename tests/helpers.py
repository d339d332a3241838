"""Shared draw helpers for the test suite.

Dyadic draws produce coefficients of the form (a + b*i) / 8 with small
integers a, b.  Sums and products of such numbers are exact in double
precision, so algebraic laws (multiplicativity, linearity) can be asserted
with literal equality instead of a tolerance.
"""

from itertools import accumulate, chain, compress

import numpy as np
import scipy.sparse as sp

try:
    from hypothesis import strategies as st
except ImportError:  # only the property modules draw quivers, and they skip without it
    st = None

from quiveralg import (
    Arrow,
    CornerReport,
    CorrespondenceElement,
    Path,
    PathPolynomial,
    Quiver,
    TwoDimRep,
    arrow_path,
    compose,
    enumerate_paths,
    inner_product,
    probe_character_dimension,
    probe_pair_dimension,
    rho_eval,
)


def random_quiver(rng, max_n=3, max_entry=2, min_n=1):
    n = int(rng.integers(min_n, max_n + 1))
    c = rng.integers(0, max_entry + 1, size=(n, n))
    return Quiver(c.tolist())


if st is not None:

    @st.composite
    def quivers(draw, max_n, max_entry):
        """Quivers with 1..max_n vertices and multiplicities 0..max_entry:
        the vertex count is drawn first, then the rows."""
        n = draw(st.integers(1, max_n))
        row = st.lists(st.integers(0, max_entry), min_size=n, max_size=n)
        return Quiver(draw(st.lists(row, min_size=n, max_size=n)))


def random_element(q, rng):
    return CorrespondenceElement.random(q, rng)


def random_polynomial(q, rng, max_degree=2, terms=4):
    paths = enumerate_paths(q, max_degree)
    k = min(terms, len(paths))
    picks = rng.choice(len(paths), size=k, replace=False)
    poly = PathPolynomial.zero(q)
    for idx in picks:
        coeff = complex(rng.standard_normal(), rng.standard_normal())
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


def reference_blocks(xi):
    """The element as an n x n nested list of block vectors, read arrow by
    arrow off ``arrows()``: block (i, j) holds the coefficients of the
    arrows from j to i, by index."""
    q = xi.quiver
    blocks = [[[] for _ in q.vertices()] for _ in q.vertices()]
    for a, z in zip(q.arrows(), xi.vector, strict=True):
        assert a.index == len(blocks[a.target][a.source])
        blocks[a.target][a.source].append(z)
    return [[np.array(b, dtype=complex) for b in row] for row in blocks]


def reference_random_blocks(q, rng):
    """Standard complex Gaussian blocks, drawn block by block in (target,
    source) order, real part then imaginary part."""
    return [
        [
            rng.standard_normal(d) + 1j * rng.standard_normal(d) if d else np.zeros(0, dtype=complex)
            for d in row
        ]
        for row in q.c
    ]


def reference_inner_product(xi_blocks, eta_blocks):
    """Entry j: the sum over i of the vdot of blocks (i, j)."""
    n = len(xi_blocks)
    return np.array(
        [sum(np.vdot(xi_blocks[i][j], eta_blocks[i][j]) for i in range(n)) for j in range(n)]
    )


def reference_arrow_inner_product(xi, eta):
    """Entry v: one ``np.vdot`` over the coefficients of the arrows leaving
    v, taken in ``arrows()`` order."""
    arrows = list(xi.quiver.arrows())
    leaving = [
        [k for k, a in enumerate(arrows) if a.source == v] for v in xi.quiver.vertices()
    ]
    return np.array([np.vdot(xi.vector[ks], eta.vector[ks]) for ks in leaving], dtype=complex)


def reference_left_action(d, blocks):
    """Block (i, j) scaled by d_i."""
    return [[d[i] * b for b in row] for i, row in enumerate(blocks)]


def reference_right_action(blocks, d):
    """Block (i, j) scaled by d_j."""
    return [[b * d[j] for j, b in enumerate(row)] for row in blocks]


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


def reference_creation_matrix(space, xi, paths=None):
    """The creation matrix built path by path on the reference enumeration
    (``paths``, when given, is that enumeration): column p gets xi[a] in the
    row of (a after p) for every arrow a leaving p's target, zero
    coefficients dropped, paths of length ``depth`` mapped to zero."""
    rows, cols, data = [], [], []
    if paths is None:
        paths = reference_enumerate_paths(space.quiver, space.depth)
    index = basis_index(paths)
    arrows_by_source = [list(space.quiver.arrows_from(v)) for v in space.quiver.vertices()]
    for col, p in enumerate(paths):
        if p.length == space.depth:
            continue
        for a in arrows_by_source[p.target]:
            z = xi.component(a)
            if z != 0:
                rows.append(index[Path(p.base, p.arrows + (a,))])
                cols.append(col)
                data.append(z)
    return sp.coo_matrix(
        (np.array(data, dtype=complex), (rows, cols)), shape=(space.dim, space.dim)
    ).tocsr()


def reference_shift_norm(mat):
    """The norm of a sparse matrix with at most one stored entry in every
    row: its columns are orthogonal, so it is the largest column 2-norm."""
    csr = mat.tocsr()
    assert np.diff(csr.indptr).max(initial=0) <= 1
    sq = np.bincount(csr.indices, weights=np.abs(csr.data) ** 2, minlength=csr.shape[1])
    return float(np.sqrt(sq.max()))


def reference_covariance_deviation(space, xi, eta):
    """The covariance check on sparse products: T_xi* T_eta minus the
    diagonal action of <xi, eta>, cut to the paths of length <= depth - 1,
    and the norm of that (diagonal) block, with the creation matrices built
    path by path."""
    paths = reference_enumerate_paths(space.quiver, space.depth)
    t_xi = reference_creation_matrix(space, xi, paths)
    t_eta = reference_creation_matrix(space, eta, paths)
    lhs = t_xi.conj().T @ t_eta
    targets = [p.target for p in paths]
    rhs = sp.diags(inner_product(xi, eta)[targets], format="csr", dtype=complex)
    inner = [k for k, p in enumerate(paths) if p.length <= space.depth - 1]
    return reference_shift_norm((lhs - rhs).tocsr()[inner][:, inner])


def _max_abs(mat):
    mat = mat.tocoo()
    return float(np.max(np.abs(mat.data))) if mat.nnz else 0.0


def reference_corner_report(space, vertex):
    """The corner report on sparse products: every loop's creation matrix,
    built path by path, cut to the corner paths (rows) and the corner paths
    of length <= depth - 1 (columns); then B* B - I for each loop, B* B' for
    each pair, R^2 - R for the range sum R of all B B*, and the corner size
    minus the trace of R."""
    q = space.quiver
    paths = reference_enumerate_paths(q, space.depth)
    corner = [k for k, p in enumerate(paths) if p.target == vertex]
    domain = [k for k in corner if paths[k].length <= space.depth - 1]
    loops = q.block(vertex, vertex)
    compressed = [
        reference_creation_matrix(space, CorrespondenceElement.basis(q, a), paths)[corner][:, domain]
        for a in loops
    ]
    eye = sp.identity(len(domain), dtype=complex, format="csr")
    iso_dev = max(_max_abs(b.conj().T @ b - eye) for b in compressed)
    orth_dev = 0.0
    for r, b in enumerate(compressed):
        for b2 in compressed[r + 1 :]:
            orth_dev = max(orth_dev, _max_abs(b.conj().T @ b2))
    range_sum = sum(b @ b.conj().T for b in compressed)
    return CornerReport(
        vertex=vertex,
        loop_count=len(loops),
        isometry_deviation=iso_dev,
        orthogonality_deviation=orth_dev,
        projector_deviation=_max_abs(range_sum @ range_sum - range_sum),
        range_deficiency=len(corner) - int(round(range_sum.diagonal().sum().real)),
    )


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


def single_pair_probes(s):
    """Every label pair's count from the probes that take one pair: the
    character probe on the diagonal and the pair probe off it, row by row."""
    return [
        [probe_character_dimension(s, a) if a == b else probe_pair_dimension(s, a, b) for b in range(s.n)]
        for a in range(s.n)
    ]


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


class ReferenceLayout:
    """A quiver's arrow layout as it was read off a tuple-of-tuples matrix,
    entry by entry: the nonempty blocks, the n^2 + 1 block starts (row-major
    prefix sums), the arrows and arrows by source, the arrow ends and the
    by-source order with its group bounds."""

    def __init__(self, rows):
        self.rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = self.n = len(self.rows)
        self.blocks = tuple((t, s, row[s]) for t, row in enumerate(self.rows) for s in compress(range(n), row))
        self.starts = list(accumulate(chain.from_iterable(self.rows), initial=0))
        self.arrows = [Arrow(s, t, k) for t, s, d in self.blocks for k in range(d)]
        self.arrows_from = [
            [Arrow(s, t, k) for t in range(n) for k in range(self.rows[t][s])] for s in range(n)
        ]
        blocks = np.repeat(np.arange(n * n), np.array(self.rows, dtype=np.int64).reshape(-1))
        targets, sources = np.divmod(blocks, n)
        self.arrow_ends = (sources, targets)
        order = np.argsort(sources, kind="stable")
        self.by_source = (order, np.searchsorted(sources[order], np.arange(n + 1)))

    def permuted(self, tau):
        """The rows of ``apply_permutation``: c'[i][j] = c[tau[i]][tau[j]]."""
        return [[self.rows[t][u] for u in tau] for t in tau]

    def signatures(self):
        c, n = self.rows, self.n
        return [
            (
                c[v][v],
                tuple(sorted(c[w][v] for w in range(n) if w != v)),
                tuple(sorted(c[v][w] for w in range(n) if w != v)),
            )
            for v in range(n)
        ]


def reference_are_isomorphic(rows1, rows2):
    """The least tau with rows2[i][j] == rows1[tau[i]][tau[j]], or None, by
    the signature-pruned backtracking over tuple matrices."""
    r1, r2 = ReferenceLayout(rows1), ReferenceLayout(rows2)
    if r1.n != r2.n:
        return None
    n, c1, c2 = r1.n, r1.rows, r2.rows
    sig1, sig2 = r1.signatures(), r2.signatures()
    if sorted(sig1) != sorted(sig2):
        return None
    candidates = [[v for v in range(n) if sig1[v] == sig2[k]] for k in range(n)]
    tau = []

    def extend(k):
        if k == n:
            return True
        for v in candidates[k]:
            if v in tau or any(c1[t][v] != c2[i][k] or c1[v][t] != c2[k][i] for i, t in enumerate(tau)):
                continue
            tau.append(v)
            if extend(k + 1):
                return True
            tau.pop()
        return False

    return tuple(tau) if extend(0) else None


def reference_rep_rows(s, reps):
    """The representation rows entry by entry: the upper-right entry of
    ``rho_eval`` of every representation on every generator."""
    return np.array([[rho_eval(r, g)[0, 1] for g in s.generators] for r in reps])


def generator_table(s):
    """A presentation's generator table as label pair -> (the indices of the
    generators labelled with the pair, their coefficient rows, the rank of
    those rows), pairs in row-major order."""
    return dict(
        sorted(
            (tuple(pair), (ks, rows, rank))
            for r in s._records
            for pair, ks, rows, rank in zip(r.pairs.tolist(), r.gens, r.rows, r.ranks.tolist())
        )
    )


def reference_product(p, r):
    """The product of two polynomials by the double loop over their terms."""
    terms = {}
    for u, cu in p.terms.items():
        for v, cv in r.terms.items():
            w = compose(u, v)
            if w is not None:
                terms[w] = terms.get(w, 0j) + cu * cv
    return PathPolynomial(p.quiver, terms)


def reference_haar_unitary(rng, d):
    """One Haar unitary drawn on its own: a (d, d) real then a (d, d)
    imaginary Gaussian draw, one QR, the phase-fixed diagonal."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def reference_scramble(q, seed):
    """``scramble``'s draws one block at a time: the vertex permutation, the
    unitary of each nonempty block in (target, source) order, then the
    generator order.  Returns (tau, unitaries, generator terms): unitaries
    maps each block, in block order, to its unitary and the index of the
    generator each of its columns is handed out as; the terms of each
    generator are a list of (path, coefficient)."""
    rng = np.random.default_rng(seed)
    tau = tuple(int(v) for v in rng.permutation(q.n))
    listed, generators = {}, []
    for i in range(q.n):
        for j in range(q.n):
            d = q.c[i][j]
            if d:
                u = reference_haar_unitary(rng, d)
                listed[(i, j)] = u, range(len(generators), len(generators) + d)
                paths = [arrow_path(a) for a in q.block(i, j)]
                generators += [list(zip(paths, u[:, m])) for m in range(d)]
    order = rng.permutation(len(generators))
    position = np.argsort(order)  # the generator listed at p is handed out as position[p]
    unitaries = {block: (u, position[span].tolist()) for block, (u, span) in listed.items()}
    return tau, unitaries, [generators[k] for k in order]


def assert_rows_are_unitary_columns(s, tau, unitaries):
    """Every block of ``reference_scramble``'s unitaries has a label pair in
    the table of ``s``, and each of that pair's rows is, bit for bit, the
    column of the block's unitary handed out as the row's generator index."""
    table = generator_table(s)
    assert sorted((tau[a], tau[b]) for a, b in table) == list(unitaries)
    for (a, b), (ks, rows, _) in table.items():
        u, columns = unitaries[(tau[a], tau[b])]
        assert sorted(ks.tolist()) == sorted(columns) and rows.shape == u.shape
        for k, row in zip(ks.tolist(), rows):
            column = u[:, columns.index(k)]
            assert row.dtype == column.dtype and row.tobytes() == column.tobytes()
