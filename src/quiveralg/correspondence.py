"""The graph correspondence: functions on the arrows, a bimodule over the
diagonal matrix algebra.

An element assigns one complex coefficient to every arrow and is stored as
one vector in ``quiver.arrows()`` order, so the arrows from j to i (block
(i, j), of dimension c[i][j]) form one contiguous slice, empty when
c[i][j] = 0.  An element of the diagonal algebra, diag(d_0, ..., d_{n-1}),
is a plain vector of its n entries.  It acts on the left through an arrow's
target and on the right through its source, and the inner product is
diagonal-algebra valued, a complex vector of length n:

    inner_product(xi, eta)[v] = sum over the arrows e leaving v of conj(xi(e)) eta(e)

with the scalar inner product conjugate-linear in the FIRST slot and linear
in the second.  Every downstream pairing in this package follows the same
convention.  Entry v is one ``np.vdot`` over the arrows leaving v, read in
the quiver's by-source order; ``random`` is one ``_complex_gaussians`` draw.
``inner_product``, ``element_norm`` and ``random`` are the one-row cases of
``_inner_rows``, ``_module_norms`` and ``_random_rows``, which take or give
m elements as the rows of an (m, arrows) array.
"""

from __future__ import annotations

import numpy as np

from .quiver import Arrow, Quiver, _check_arrow_count


class CorrespondenceElement:
    """A function on the arrows: ``vector[k]`` is the coefficient of arrow k
    of ``quiver.arrows()``.  A vector that is not 1-D, of another length or
    with a NaN or infinite entry is refused."""

    __slots__ = ("quiver", "vector")

    def __init__(self, quiver: Quiver, vector) -> None:
        vec = np.array(vector, dtype=complex)
        if vec.ndim != 1:
            raise ValueError(f"an element must be a 1-D vector, got shape {vec.shape}")
        if vec.shape[0] != quiver.total_arrows():
            raise ValueError(
                f"an element must have dimension {quiver.total_arrows()} (one "
                f"coefficient per arrow), got {vec.shape[0]}"
            )
        if not np.isfinite(vec).all():
            raise ValueError("coefficients must be finite")
        self.quiver = quiver
        self.vector = vec

    @classmethod
    def zeros(cls, quiver: Quiver) -> "CorrespondenceElement":
        _check_arrow_count(quiver.total_arrows())
        return cls(quiver, np.zeros(quiver.total_arrows()))

    @classmethod
    def basis(cls, quiver: Quiver, arrow: Arrow) -> "CorrespondenceElement":
        """The basis element supported on a single arrow."""
        out = cls.zeros(quiver)
        out.vector[_position(quiver, arrow)] = 1.0
        return out

    @classmethod
    def random(cls, quiver: Quiver, rng: np.random.Generator):
        """Standard complex Gaussian coefficients, drawn block by block in
        (target, source) order, real parts before imaginary parts."""
        return cls(quiver, _random_rows(quiver, rng, 1)[0])

    def block(self, target: int, source: int) -> np.ndarray:
        """The coefficients of the arrows from ``source`` to ``target``, by index."""
        start = self.quiver.block_start(target, source)
        return self.vector[start:start + self.quiver.count(target, source)]

    def component(self, a: Arrow) -> complex:
        """The coefficient of the basis arrow ``a``."""
        return complex(self.vector[_position(self.quiver, a)])

    def with_block(self, target: int, source: int, vec) -> "CorrespondenceElement":
        """A copy with one block replaced; a replacement of another length
        is refused by the dimension check."""
        start = self.quiver.block_start(target, source)
        end = start + self.quiver.count(target, source)
        vector = np.concatenate([self.vector[:start], np.ravel(vec), self.vector[end:]])
        return CorrespondenceElement(self.quiver, vector)

    def __add__(self, other):
        _same_quiver(self, other)
        return CorrespondenceElement(self.quiver, self.vector + other.vector)

    def __sub__(self, other):
        _same_quiver(self, other)
        return CorrespondenceElement(self.quiver, self.vector - other.vector)

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        return CorrespondenceElement(self.quiver, complex(scalar) * self.vector)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        nonzero = np.count_nonzero(self.vector)
        return f"<CorrespondenceElement over n={self.quiver.n}, {nonzero} nonzero coefficients>"


def _position(quiver: Quiver, a: Arrow) -> int:
    """The place of arrow ``a`` in ``quiver.arrows()``."""
    if not quiver.has_arrow(a):
        raise ValueError(f"{a!r} is not an arrow of this quiver")
    return quiver.block_start(a.target, a.source) + a.index


def _complex_gaussians(rng: np.random.Generator, sizes: list[int]) -> np.ndarray:
    """Complex Gaussians for blocks of these sizes, concatenated, from one
    ``standard_normal`` call: each block's d real, then d imaginary parts."""
    sizes = np.asarray(sizes, dtype=np.intp)
    real = np.arange(sizes.sum()) + np.repeat(np.cumsum(sizes) - sizes, sizes)
    z = rng.standard_normal(2 * len(real))
    return z[real] + 1j * z[real + np.repeat(sizes, sizes)]


def _random_rows(quiver: Quiver, rng: np.random.Generator, k: int) -> np.ndarray:
    """k coefficient vectors as the rows of a (k, arrows) array, from one
    ``_complex_gaussians`` draw.  One ``standard_normal`` call of size N
    draws the numbers that consecutive calls with sizes adding up to N draw,
    so row r is the vector of the (r + 1)-th of k consecutive ``random``
    calls."""
    _check_arrow_count(quiver.total_arrows())
    return _complex_gaussians(rng, np.tile(quiver._sizes, k)).reshape(k, quiver.total_arrows())


def _same_quiver(xi: CorrespondenceElement, eta: CorrespondenceElement) -> None:
    if xi.quiver != eta.quiver:
        raise ValueError("elements live over different quivers")


def _diagonal(d, quiver: Quiver) -> np.ndarray:
    """A diagonal element as a complex vector, one entry per vertex."""
    vec = np.asarray(d, dtype=complex)
    if vec.shape != (quiver.n,):
        raise ValueError("diagonal size does not match the quiver")
    return vec


def inner_product(xi: CorrespondenceElement, eta: CorrespondenceElement) -> np.ndarray:
    """Diagonal-valued inner product as a complex vector of length n;
    conjugate-linear in ``xi``.  Entry v pairs the coefficients of the
    arrows that leave v."""
    _same_quiver(xi, eta)
    return _inner_rows(xi.quiver, xi.vector[None], eta.vector[None])[0]


def _inner_rows(quiver: Quiver, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``inner_product`` of each row pair of two (m, arrows) coefficient
    stacks, as an (m, n) array: one ``np.vdot`` per row and vertex."""
    order, bounds = quiver._by_source
    b = bounds.tolist()
    ends = list(zip(b, b[1:]))
    return np.array(
        [[np.vdot(x[lo:hi], y[lo:hi]) for lo, hi in ends] for x, y in zip(xs[:, order], ys[:, order])],
        dtype=complex,
    )


def left_action(d, xi: CorrespondenceElement) -> CorrespondenceElement:
    """Scale the coefficient of each arrow by d (a length-n vector) at its target."""
    _, targets = xi.quiver.arrow_ends()
    return CorrespondenceElement(xi.quiver, _diagonal(d, xi.quiver)[targets] * xi.vector)


def right_action(xi: CorrespondenceElement, d) -> CorrespondenceElement:
    """Scale the coefficient of each arrow by d (a length-n vector) at its source."""
    sources, _ = xi.quiver.arrow_ends()
    return CorrespondenceElement(xi.quiver, xi.vector * _diagonal(d, xi.quiver)[sources])


def element_norm(xi: CorrespondenceElement) -> float:
    """Module norm: max over vertices v of sqrt(sum of |xi(e)|^2 over the arrows e leaving v)."""
    return float(_module_norms(xi.quiver, xi.vector[None])[0])


def _module_norms(quiver: Quiver, xs: np.ndarray) -> np.ndarray:
    """``element_norm`` of each row of an (m, arrows) coefficient stack."""
    return np.sqrt(np.max(_inner_rows(quiver, xs, xs).real, axis=1))
