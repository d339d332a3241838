"""Directed multigraphs with arrow multiplicities and their paths.

The multiplicity matrix is indexed (target, source): ``c[i][j]`` counts the
arrows from vertex ``j`` to vertex ``i``.  Vertices and arrow indices are
0-based throughout the Python API; the graph file format is 1-based (see
:mod:`quiveralg.graphio`).

Composition convention: ``compose(p, r)`` is "p after r".  A path stores its
arrows in traversal order (``arrows[0]`` is walked first), so the word a path
spells in an operator product reads right to left.  This matches the shift
operators the paths label (see :mod:`quiveralg.fock`).

All values here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

#: ``are_isomorphic`` refuses graphs with more vertices than this
#: (the search is a plain sweep over all n! vertex permutations).
ISO_VERTEX_LIMIT = 8


def _as_count(value) -> int:
    if isinstance(value, bool):
        raise ValueError("multiplicities must be integers, got a bool")
    if isinstance(value, float) or isinstance(value, np.floating):
        if math.isinf(value) or math.isnan(value):
            raise ValueError(
                "infinite multiplicities are not supported; all arrow counts "
                "must be finite nonnegative integers"
            )
        if not float(value).is_integer():
            raise ValueError(f"multiplicities must be integers, got {value!r}")
    count = int(value)
    if count < 0:
        raise ValueError(f"multiplicities must be nonnegative, got {count}")
    return count


@dataclass(frozen=True)
class Arrow:
    """A single arrow ``source -> target``.

    ``index`` runs from 0 to ``c[target][source] - 1`` and distinguishes
    parallel arrows.
    """

    source: int
    target: int
    index: int


@dataclass(frozen=True)
class Quiver:
    """A finite directed multigraph, given by its multiplicity matrix."""

    c: tuple[tuple[int, ...], ...]

    def __init__(self, c) -> None:
        rows = tuple(tuple(_as_count(x) for x in row) for row in c)
        if len(rows) == 0:
            raise ValueError("a quiver needs at least one vertex")
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("multiplicity matrix must be square")
        object.__setattr__(self, "c", rows)

    @property
    def n(self) -> int:
        return len(self.c)

    def matrix(self) -> np.ndarray:
        """The multiplicity matrix as a fresh int array."""
        return np.array(self.c, dtype=np.int64)

    def count(self, target: int, source: int) -> int:
        """Number of arrows from ``source`` to ``target``."""
        self._check_vertex(target)
        self._check_vertex(source)
        return self.c[target][source]

    def vertices(self) -> range:
        return range(self.n)

    def arrows_from(self, source: int) -> Iterator[Arrow]:
        """All arrows leaving ``source``, ordered by (target, index)."""
        self._check_vertex(source)
        for target in range(self.n):
            for index in range(self.c[target][source]):
                yield Arrow(source, target, index)

    def arrows(self) -> Iterator[Arrow]:
        """All arrows, ordered by (target, source, index)."""
        for target in range(self.n):
            for source in range(self.n):
                for index in range(self.c[target][source]):
                    yield Arrow(source, target, index)

    def block(self, target: int, source: int) -> list[Arrow]:
        """The arrows from ``source`` to ``target``, ordered by index."""
        return [Arrow(source, target, m) for m in range(self.count(target, source))]

    def has_arrow(self, a: Arrow) -> bool:
        return (
            0 <= a.target < self.n
            and 0 <= a.source < self.n
            and 0 <= a.index < self.c[a.target][a.source]
        )

    def total_arrows(self) -> int:
        return sum(sum(row) for row in self.c)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for a {self.n}-vertex quiver")


@dataclass(frozen=True)
class Path:
    """A composable sequence of arrows; length 0 means the vertex ``base``.

    Arrows are stored in traversal order, so consecutive entries satisfy
    ``arrows[k].target == arrows[k + 1].source`` and the first arrow leaves
    ``base``.
    """

    base: int
    arrows: tuple[Arrow, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrows", tuple(self.arrows))
        if self.arrows:
            if self.arrows[0].source != self.base:
                raise ValueError("first arrow must leave the base vertex")
            for a, b in zip(self.arrows, self.arrows[1:]):
                if a.target != b.source:
                    raise ValueError("arrows do not compose")

    @property
    def source(self) -> int:
        return self.base

    @property
    def target(self) -> int:
        return self.arrows[-1].target if self.arrows else self.base

    @property
    def length(self) -> int:
        return len(self.arrows)

    def sort_key(self) -> tuple:
        """Canonical ordering key: length, then source, then arrow labels."""
        return (
            len(self.arrows),
            self.base,
            tuple((a.target, a.index) for a in self.arrows),
        )


def vertex_path(vertex: int) -> Path:
    return Path(vertex)


def arrow_path(a: Arrow) -> Path:
    return Path(a.source, (a,))


def compose(p: Path, r: Path) -> Optional[Path]:
    """The path "p after r", or None when the endpoints do not match.

    A None result means the product of the corresponding monomials is zero.
    Vertex paths act as one-sided units at matching endpoints.
    """
    if r.target != p.source:
        return None
    return Path(r.base, r.arrows + p.arrows)


def enumerate_paths(q: Quiver, max_len: int) -> list[Path]:
    """All paths of length at most ``max_len``.

    The order is deterministic: by length, then by the canonical per-length
    order of :meth:`Path.sort_key`.  This ordering fixes the basis of every
    matrix built downstream, so runs are reproducible bit for bit.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    out: list[Path] = []
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


def apply_permutation(q: Quiver, tau: Sequence[int]) -> Quiver:
    """Relabel vertices: the result has ``c'[i][j] = c[tau[i]][tau[j]]``."""
    tau = tuple(int(t) for t in tau)
    if sorted(tau) != list(range(q.n)):
        raise ValueError(f"not a permutation of 0..{q.n - 1}: {tau!r}")
    return Quiver(
        tuple(tuple(q.c[tau[i]][tau[j]] for j in range(q.n)) for i in range(q.n))
    )


def are_isomorphic(q1: Quiver, q2: Quiver) -> Optional[tuple[int, ...]]:
    """Search for a vertex permutation tau with ``apply_permutation(q1, tau) == q2``.

    Returns the lexicographically least such permutation, or None.  The
    search is exhaustive over all n! candidates, so graphs larger than
    ``ISO_VERTEX_LIMIT`` vertices are refused.
    """
    if q1.n != q2.n:
        return None
    if q1.n > ISO_VERTEX_LIMIT:
        raise ValueError(
            f"size limit exceeded: refusing isomorphism search on {q1.n} > "
            f"{ISO_VERTEX_LIMIT} vertices"
        )
    for tau in itertools.permutations(range(q1.n)):
        if apply_permutation(q1, tau) == q2:
            return tau
    return None
