"""The graph correspondence: functions on the arrows, a bimodule over the
diagonal matrix algebra.

An element assigns one complex coefficient to every arrow and is stored as
one vector in ``quiver.arrows()`` order, so the arrows from j to i (block
(i, j), of dimension c[i][j]) form one contiguous slice, empty when
c[i][j] = 0.  The diagonal algebra acts on the left through an arrow's
target and on the right through its source, and the inner product is
diagonal-algebra valued:

    inner_product(xi, eta)[v] = sum over the arrows e leaving v of conj(xi(e)) eta(e)

with the scalar inner product conjugate-linear in the FIRST slot and linear
in the second.  Every downstream pairing in this package follows the same
convention.
"""

from __future__ import annotations

import numpy as np

from .quiver import Arrow, Quiver


class DiagonalElement:
    """A diagonal matrix diag(d_0, ..., d_{n-1}) stored as a complex vector."""

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        e = np.array(entries, dtype=complex)
        if e.ndim != 1:
            raise ValueError("diagonal entries must form a flat vector")
        self.entries = e

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, n: int) -> "DiagonalElement":
        return cls(np.ones(n))

    @classmethod
    def zero(cls, n: int) -> "DiagonalElement":
        return cls(np.zeros(n))

    @classmethod
    def unit(cls, n: int, vertex: int) -> "DiagonalElement":
        """The minimal idempotent e_vertex."""
        e = np.zeros(n, dtype=complex)
        e[vertex] = 1.0
        return cls(e)

    def conjugate(self) -> "DiagonalElement":
        return DiagonalElement(np.conj(self.entries))

    def __add__(self, other: "DiagonalElement") -> "DiagonalElement":
        return DiagonalElement(self.entries + other.entries)

    def __mul__(self, other):
        if isinstance(other, DiagonalElement):
            return DiagonalElement(self.entries * other.entries)
        return DiagonalElement(self.entries * complex(other))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DiagonalElement({self.entries.tolist()!r})"


class CorrespondenceElement:
    """A function on the arrows: ``vector[k]`` is the coefficient of arrow k
    of ``quiver.arrows()``."""

    __slots__ = ("quiver", "vector")

    def __init__(self, quiver: Quiver, vector) -> None:
        vec = np.array(vector, dtype=complex).reshape(-1)
        if vec.shape[0] != quiver.total_arrows():
            raise ValueError(
                f"an element must have dimension {quiver.total_arrows()} (one "
                f"coefficient per arrow), got {vec.shape[0]}"
            )
        self.quiver = quiver
        self.vector = vec

    @classmethod
    def zeros(cls, quiver: Quiver) -> "CorrespondenceElement":
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
        out = cls.zeros(quiver)
        for i in quiver.vertices():
            for j in quiver.vertices():
                d = quiver.c[i][j]
                if d:
                    start = quiver.block_start(i, j)
                    out.vector[start:start + d] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return out

    def block(self, target: int, source: int) -> np.ndarray:
        """The coefficients of the arrows from ``source`` to ``target``, by index."""
        start = self.quiver.block_start(target, source)
        return self.vector[start:start + self.quiver.c[target][source]]

    def component(self, a: Arrow) -> complex:
        """The coefficient of the basis arrow ``a``."""
        return complex(self.vector[_position(self.quiver, a)])

    def with_block(self, target: int, source: int, vec) -> "CorrespondenceElement":
        """A copy with one block replaced; a replacement of another length
        is refused by the dimension check."""
        start = self.quiver.block_start(target, source)
        end = start + self.quiver.c[target][source]
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


def _same_quiver(xi: CorrespondenceElement, eta: CorrespondenceElement) -> None:
    if xi.quiver != eta.quiver:
        raise ValueError("elements live over different quivers")


def inner_product(xi: CorrespondenceElement, eta: CorrespondenceElement) -> DiagonalElement:
    """Diagonal-valued inner product; conjugate-linear in ``xi``.  Entry v
    pairs the coefficients of the arrows that leave v."""
    _same_quiver(xi, eta)
    sources, _ = xi.quiver.arrow_ends()
    return DiagonalElement(
        [np.vdot(xi.vector[sources == v], eta.vector[sources == v]) for v in xi.quiver.vertices()]
    )


def left_action(d: DiagonalElement, xi: CorrespondenceElement) -> CorrespondenceElement:
    """Scale the coefficient of each arrow by d at its target."""
    if d.n != xi.quiver.n:
        raise ValueError("diagonal size does not match the quiver")
    _, targets = xi.quiver.arrow_ends()
    return CorrespondenceElement(xi.quiver, d.entries[targets] * xi.vector)


def right_action(xi: CorrespondenceElement, d: DiagonalElement) -> CorrespondenceElement:
    """Scale the coefficient of each arrow by d at its source."""
    if d.n != xi.quiver.n:
        raise ValueError("diagonal size does not match the quiver")
    sources, _ = xi.quiver.arrow_ends()
    return CorrespondenceElement(xi.quiver, xi.vector * d.entries[sources])


def element_norm(xi: CorrespondenceElement) -> float:
    """Module norm: max over vertices v of sqrt(sum of |xi(e)|^2 over the arrows e leaving v)."""
    cols = inner_product(xi, xi).entries.real
    return float(np.sqrt(np.max(cols)))
