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

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

#: ``are_isomorphic`` refuses graphs with more vertices than this.  It is an
#: input guard, not a cost cap: the search backtracks over signature classes
#: (see ``are_isomorphic``) and stays far from exhaustive on graphs this size.
ISO_VERTEX_LIMIT = 64

#: ``enumerate_paths`` and ``FockSpace`` refuse graphs with more paths than
#: this up to the requested length; the count is exact and taken before any
#: path is built.
PATH_LIMIT = 2**20


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


def _path_count_check(c: tuple[tuple[int, ...], ...], max_len: int) -> None:
    """Refuse, before anything is allocated, graphs with more than
    ``PATH_LIMIT`` paths of length <= ``max_len``.

    The count sum over k <= max_len of 1^T C^k 1 is taken in exact integers,
    level by level, and stops at the first empty level.  A nonempty level at
    length >= n holds a path through n + 1 vertices, hence a cycle, so every
    longer level holds at least one path: the remaining levels are counted
    as one path each, which decides very large ``max_len`` at once.
    """
    n = len(c)
    level = [1] * n  # paths of the current length, by end vertex
    total = n
    for k in range(1, max_len + 1):
        level = [sum(c[t][s] * level[s] for s in range(n) if c[t][s]) for t in range(n)]
        size = sum(level)
        if size == 0:
            break
        total += size
        if total > PATH_LIMIT or (k >= n and total + (max_len - k) > PATH_LIMIT):
            raise ValueError(
                f"size limit exceeded: refusing more than {PATH_LIMIT} paths "
                f"(lengths up to {max_len})"
            )


def _path_tree(q: Quiver, max_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The paths of length <= ``max_len`` as arrays, in ``enumerate_paths`` order.

    Returns ``(parent, last_arrow, lengths, targets)``.  Paths 0..n-1 are the
    vertices; path n + r is path ``parent[r]`` followed by the arrow at
    position ``last_arrow[r]`` of ``tuple(q.arrows())``.  ``lengths`` and
    ``targets`` hold every path's length and end vertex.  Each level lists
    the children of the level before it parent by parent, each parent's in
    ``arrows_from`` order, so the children of all paths shorter than
    ``max_len``, in path order, are the paths from position n on.  Graphs
    with more than ``PATH_LIMIT`` such paths are refused before any array is
    built.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    _path_count_check(q.c, max_len)
    position = {a: k for k, a in enumerate(q.arrows())}
    out = [list(q.arrows_from(v)) for v in q.vertices()]
    out_deg = np.array([len(o) for o in out], dtype=np.intp)
    out_start = np.cumsum(out_deg) - out_deg
    out_arrow = np.array([position[a] for o in out for a in o], dtype=np.intp)
    out_target = np.array([a.target for o in out for a in o], dtype=np.intp)

    ends = np.arange(q.n, dtype=np.intp)  # end vertices of the current level
    start = 0  # position of its first path
    none = np.zeros(0, dtype=np.intp)
    parent, last_arrow, lengths, targets = [none], [none], [np.zeros(q.n, dtype=np.intp)], [ends]
    for k in range(1, max_len + 1):
        counts = out_deg[ends]
        size = int(counts.sum())
        if size == 0:
            break
        parent.append(np.repeat(np.arange(start, start + len(ends)), counts))
        pos = np.repeat(out_start[ends] - (np.cumsum(counts) - counts), counts) + np.arange(size)
        start += len(ends)
        ends = out_target[pos]
        last_arrow.append(out_arrow[pos])
        lengths.append(np.full(size, k, dtype=np.intp))
        targets.append(ends)
    return tuple(np.concatenate(a) for a in (parent, last_arrow, lengths, targets))


def enumerate_paths(q: Quiver, max_len: int) -> list[Path]:
    """All paths of length at most ``max_len``.

    The order is deterministic: by length, then by the canonical per-length
    order of :meth:`Path.sort_key`.  This ordering fixes the basis of every
    matrix built downstream, so runs are reproducible bit for bit.  The paths
    are read off ``_path_tree``, which defines that order, and graphs with
    more than ``PATH_LIMIT`` paths are refused.
    """
    parent, last_arrow, _, _ = _path_tree(q, max_len)
    arrows = tuple(q.arrows())
    out = [Path(v) for v in q.vertices()]
    for p, a in zip(parent.tolist(), last_arrow.tolist()):
        head = out[p]
        out.append(Path(head.base, head.arrows + (arrows[a],)))
    return out


def apply_permutation(q: Quiver, tau: Sequence[int]) -> Quiver:
    """Relabel vertices: the result has ``c'[i][j] = c[tau[i]][tau[j]]``."""
    tau = tuple(int(t) for t in tau)
    if sorted(tau) != list(range(q.n)):
        raise ValueError(f"not a permutation of 0..{q.n - 1}: {tau!r}")
    return Quiver(
        tuple(tuple(q.c[tau[i]][tau[j]] for j in range(q.n)) for i in range(q.n))
    )


def _vertex_signatures(c: tuple[tuple[int, ...], ...]) -> list[tuple]:
    """Per vertex: its loop count and the sorted multisets of its off-diagonal
    out- and in-multiplicities.  A vertex permutation carrying one graph onto
    another maps every vertex to one of equal signature."""
    n = len(c)
    return [
        (
            c[v][v],
            tuple(sorted(c[w][v] for w in range(n) if w != v)),
            tuple(sorted(c[v][w] for w in range(n) if w != v)),
        )
        for v in range(n)
    ]


def are_isomorphic(q1: Quiver, q2: Quiver) -> Optional[tuple[int, ...]]:
    """Search for a vertex permutation tau with ``apply_permutation(q1, tau) == q2``.

    Returns the lexicographically least such permutation, or None.  Graphs
    whose vertex signatures (loop count, out- and in-multiplicity multisets)
    differ as multisets are told apart at once.  Otherwise ``tau[0], tau[1],
    ...`` are filled in order by depth-first search: ``tau[k]`` ranges in
    increasing order over the unused vertices of ``q1`` whose signature equals
    that of vertex ``k`` of ``q2``, and a choice is dropped as soon as one
    multiplicity between it and an earlier placed vertex differs.  Since only
    choices that no isomorphism extends are dropped, the first complete
    assignment is the lexicographically least isomorphism; it is certified
    with ``apply_permutation`` before it is returned.  Graphs with more than
    ``ISO_VERTEX_LIMIT`` vertices are refused.
    """
    if q1.n != q2.n:
        return None
    if q1.n > ISO_VERTEX_LIMIT:
        raise ValueError(
            f"size limit exceeded: refusing isomorphism search on {q1.n} > "
            f"{ISO_VERTEX_LIMIT} vertices"
        )
    n, c1, c2 = q1.n, q1.c, q2.c
    sig1, sig2 = _vertex_signatures(c1), _vertex_signatures(c2)
    if sorted(sig1) != sorted(sig2):
        return None
    candidates = [[v for v in range(n) if sig1[v] == sig2[k]] for k in range(n)]
    tau: list[int] = []
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        row2, col2 = c2[k], [c2[i][k] for i in range(k)]
        for v in candidates[k]:
            if used[v]:
                continue
            row1 = c1[v]
            if any(
                c1[t][v] != col2[i] or row1[t] != row2[i] for i, t in enumerate(tau)
            ):
                continue
            tau.append(v)
            used[v] = True
            if extend(k + 1):
                return True
            tau.pop()
            used[v] = False
        return False

    if not extend(0):
        return None
    witness = tuple(tau)
    if apply_permutation(q1, witness) != q2:
        raise RuntimeError(f"isomorphism search returned a non-witness {witness!r}")
    return witness
