"""Block-vector bimodule elements over the diagonal matrix algebra.

An element assigns to each vertex pair (i, j) a vector in a c[i][j]-dimensional
complex space (the span of the arrows from j to i); empty blocks are
zero-dimensional vectors, never None.  The diagonal algebra acts on the left
through row indices, on the right through column indices, and the inner
product is diagonal-algebra valued:

    inner_product(xi, eta)[j] = sum_i <xi[i, j], eta[i, j]>

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
    """An n x n array of block vectors, block (i, j) of dimension c[i][j]."""

    __slots__ = ("quiver", "blocks")

    def __init__(self, quiver: Quiver, blocks) -> None:
        self.quiver = quiver
        store: list[list[np.ndarray]] = []
        for i in range(quiver.n):
            row = []
            for j in range(quiver.n):
                vec = np.array(blocks[i][j], dtype=complex).reshape(-1)
                if vec.shape[0] != quiver.c[i][j]:
                    raise ValueError(
                        f"block ({i}, {j}) must have dimension {quiver.c[i][j]}, "
                        f"got {vec.shape[0]}"
                    )
                row.append(vec)
            store.append(row)
        self.blocks = store

    @classmethod
    def zeros(cls, quiver: Quiver) -> "CorrespondenceElement":
        return cls(
            quiver,
            [[np.zeros(quiver.c[i][j]) for j in range(quiver.n)] for i in range(quiver.n)],
        )

    @classmethod
    def basis(cls, quiver: Quiver, arrow: Arrow) -> "CorrespondenceElement":
        """The basis element supported on a single arrow."""
        if not quiver.has_arrow(arrow):
            raise ValueError(f"{arrow!r} is not an arrow of this quiver")
        out = cls.zeros(quiver)
        out.blocks[arrow.target][arrow.source][arrow.index] = 1.0
        return out

    @classmethod
    def random(cls, quiver: Quiver, rng: np.random.Generator):
        """Standard complex Gaussian entries in every block."""
        out = cls.zeros(quiver)
        for i in range(quiver.n):
            for j in range(quiver.n):
                d = quiver.c[i][j]
                if d:
                    out.blocks[i][j] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return out

    def block(self, target: int, source: int) -> np.ndarray:
        return self.blocks[target][source]

    def component(self, a: Arrow) -> complex:
        """The coefficient of the basis arrow ``a``."""
        return complex(self.blocks[a.target][a.source][a.index])

    def with_block(self, target: int, source: int, vec) -> "CorrespondenceElement":
        """A copy with one block replaced."""
        blocks = [[b.copy() for b in row] for row in self.blocks]
        blocks[target][source] = np.array(vec, dtype=complex).reshape(-1)
        return CorrespondenceElement(self.quiver, blocks)

    def _zip(self, other: "CorrespondenceElement", op) -> "CorrespondenceElement":
        _same_quiver(self, other)
        return CorrespondenceElement(
            self.quiver,
            [
                [op(self.blocks[i][j], other.blocks[i][j]) for j in range(self.quiver.n)]
                for i in range(self.quiver.n)
            ],
        )

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        z = complex(scalar)
        return CorrespondenceElement(
            self.quiver, [[z * b for b in row] for row in self.blocks]
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        nonzero = sum(
            1 for row in self.blocks for b in row if b.size and np.any(b != 0)
        )
        return f"<CorrespondenceElement over n={self.quiver.n}, {nonzero} nonzero blocks>"


def _same_quiver(xi: CorrespondenceElement, eta: CorrespondenceElement) -> None:
    if xi.quiver != eta.quiver:
        raise ValueError("elements live over different quivers")


def inner_product(xi: CorrespondenceElement, eta: CorrespondenceElement) -> DiagonalElement:
    """Diagonal-valued inner product; conjugate-linear in ``xi``."""
    _same_quiver(xi, eta)
    n = xi.quiver.n
    d = np.zeros(n, dtype=complex)
    for j in range(n):
        d[j] = sum(np.vdot(xi.blocks[i][j], eta.blocks[i][j]) for i in range(n))
    return DiagonalElement(d)


def left_action(d: DiagonalElement, xi: CorrespondenceElement) -> CorrespondenceElement:
    """Scale block (i, j) by d_i."""
    if d.n != xi.quiver.n:
        raise ValueError("diagonal size does not match the quiver")
    return CorrespondenceElement(
        xi.quiver,
        [
            [d.entries[i] * xi.blocks[i][j] for j in range(xi.quiver.n)]
            for i in range(xi.quiver.n)
        ],
    )


def right_action(xi: CorrespondenceElement, d: DiagonalElement) -> CorrespondenceElement:
    """Scale block (i, j) by d_j."""
    if d.n != xi.quiver.n:
        raise ValueError("diagonal size does not match the quiver")
    return CorrespondenceElement(
        xi.quiver,
        [
            [xi.blocks[i][j] * d.entries[j] for j in range(xi.quiver.n)]
            for i in range(xi.quiver.n)
        ],
    )


def element_norm(xi: CorrespondenceElement) -> float:
    """Module norm: the largest column norm, max_j sqrt(sum_i ||xi_ij||^2)."""
    cols = inner_product(xi, xi).entries.real
    return float(np.sqrt(np.max(cols)))
