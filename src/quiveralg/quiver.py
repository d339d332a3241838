"""Directed multigraphs with arrow multiplicities and their paths.

The multiplicity matrix is one read-only ``np.int64`` array indexed (target,
source): ``c[i, j]`` counts the arrows from vertex ``j`` to vertex ``i``.
Vertices and arrow indices are 0-based throughout the Python API; the graph
file format is 1-based (see :mod:`quiveralg.graphio`).

Composition convention: ``compose(p, r)`` is "p after r".  A path stores its
arrows in traversal order (``arrows[0]`` is walked first), so the word a path
spells in an operator product reads right to left.  This matches the shift
operators the paths label (see :mod:`quiveralg.fock`).

All values here are immutable after construction and safe to share across
threads.  Only this module walks the multiplicity matrix: a ``Quiver``
checks it once as a whole array and reads its arrow layout off one
``nonzero`` and one running sum.  The other modules read one entry
``c[i][j]`` at a time or the layout a ``Quiver`` caches: its nonempty
blocks, their sizes and their starts in ``arrows()``, the arrow ends, and
the arrows grouped by source.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Optional, Sequence

import numpy as np

#: ``are_isomorphic``, which ``iso`` and ``recover --expect`` run, refuses
#: graphs with more vertices than this.  It is an input guard, not a cost cap:
#: the search is exponential on regular graphs, where every vertex has the
#: same signature (a 3-regular pair took 8.6 s at n = 24, and one at n = 30
#: did not finish in about 14 minutes; see ROADMAP item 7).
ISO_VERTEX_LIMIT = 64

#: ``enumerate_paths`` and ``FockSpace`` refuse graphs with more paths than
#: this up to the requested length; the count is exact and taken before any
#: path is built.
PATH_LIMIT = 2**20

#: ``enumerate_paths``, ``FockSpace`` and the CLI's ``paths`` refuse graphs
#: whose paths up to the requested length hold more arrow tokens (the sum of
#: their lengths) than this, counted before any path is built.
PATH_TOKEN_LIMIT = 2**24

#: the most arrows a ``Quiver`` holds in all: arrow positions are int64
_MAX_ARROWS = 2**63 - 1


def _check_count(value) -> None:
    """Refuse one matrix entry unless it is an integer or an integral float
    in 0..``_MAX_ARROWS``."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError("multiplicities must be integers, got a bool")
    if isinstance(value, (float, np.floating)) and math.isinf(value):
        raise ValueError(
            "infinite multiplicities are not supported; all arrow counts "
            "must be finite nonnegative integers"
        )
    integral = isinstance(value, (float, np.floating)) and float(value).is_integer()  # NaN is not
    if not (integral or isinstance(value, (int, np.integer))):
        raise ValueError(f"multiplicities must be integers, got {value!r}")
    if int(value) < 0:
        raise ValueError(f"multiplicities must be nonnegative, got {int(value)}")
    if int(value) > _MAX_ARROWS:
        raise ValueError(f"size limit exceeded: a multiplicity of {int(value)} > {_MAX_ARROWS}")


def _entries(c):
    """The entries of ``c`` row by row, as given (an array's as Python values)."""
    return chain.from_iterable(c.tolist() if isinstance(c, np.ndarray) else c)


def _as_counts(c) -> np.ndarray:
    """``c`` as a new int64 matrix, checked as one array; ``Quiver`` checks
    the signs and the total on its nonzero entries.  Only when a check fails
    are the entries read one by one, to name the first that is refused."""
    try:
        a = np.array(c)
    except ValueError as exc:  # rows of different lengths
        raise ValueError("multiplicity matrix must be square") from exc
    if a.shape[:1] == (0,):
        raise ValueError("a quiver needs at least one vertex")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("multiplicity matrix must be square")
    kind = a.dtype.kind
    # NaN fails ==, and 2**63 is exact as a float, unlike _MAX_ARROWS
    integral = kind != "f" or ((np.floor(a) == a) & (abs(a) < 2.0**63)).all()
    # numpy reads a bool among numbers as 0 or 1, so a nested list is searched for one
    no_bools = isinstance(c, np.ndarray) or {bool, np.bool_}.isdisjoint(map(type, _entries(c)))
    if kind not in "iuf" or not (integral and no_bools):
        for value in _entries(c):
            _check_count(value)
    # a uint64 count past _MAX_ARROWS wraps to a negative one here
    return a.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Arrow:
    """A single arrow ``source -> target``.

    ``index`` runs from 0 to ``c[target][source] - 1`` and distinguishes
    parallel arrows.
    """

    source: int
    target: int
    index: int


@dataclass(frozen=True, eq=False)
class Quiver:
    """A finite directed multigraph, given by its multiplicity matrix.

    ``c`` is a read-only ``np.int64`` array indexed (target, source), built
    from a square nested sequence or array of integers or integral floats.
    Bools and NaN, infinite, fractional and negative entries are refused, and
    so ("size limit exceeded") is a matrix of more than ``2**63 - 1`` arrows.
    Quivers are equal, and hash equally, when their matrices are.
    """

    c: np.ndarray

    def __init__(self, c) -> None:
        self._lay_out(_as_counts(c), c)

    @classmethod
    def _of_counts(cls, counts: np.ndarray) -> Quiver:
        """The quiver on ``counts``, a fresh square int64 matrix of checked
        counts (each in 0..``_MAX_ARROWS``) that no one else holds: it is
        taken as it is, neither copied nor scanned; only the total is
        checked."""
        q = object.__new__(cls)
        q._lay_out(counts, counts)
        return q

    def _lay_out(self, counts: np.ndarray, given) -> None:
        """Take ``counts`` as ``c`` and read the arrow layout off it; a count
        or a total that is refused is named from ``given``, as it was given."""
        counts.setflags(write=False)
        # the nonempty blocks, target * n + source, ascending (a bool mask is
        # searched several times faster than the int64 matrix)
        keys = (counts != 0).ravel().nonzero()[0]
        sizes = counts.ravel()[keys]
        starts = np.zeros(len(keys) + 1, dtype=np.int64)
        np.add.accumulate(sizes, out=starts[1:])
        # the running total rises at every nonempty block unless a count is
        # negative or the total has wrapped past _MAX_ARROWS
        if (starts[1:] < starts[:-1]).any():
            for value in _entries(given):
                _check_count(value)
            raise ValueError(f"size limit exceeded: refusing more than {_MAX_ARROWS} arrows in all")
        # frozen: the fields are set once, here; nonempty block k holds _sizes[k]
        # arrows from position _starts[k] in arrows() on; _starts[-1] is the total
        vars(self).update(c=counts, n=len(counts), _keys=keys, _sizes=sizes, _starts=starts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        same_shape = self.c.shape == other.c.shape
        return other is self or (same_shape and self.c.tobytes() == other.c.tobytes())

    def __hash__(self) -> int:
        return hash((self.c.shape, self.c.tobytes()))

    def __reduce__(self):  # a pickled or deep-copied quiver is rebuilt, with a read-only c
        return Quiver, (self.c,)

    def matrix(self) -> np.ndarray:
        """The multiplicity matrix as a fresh int array."""
        return self.c.copy()

    def count(self, target: int, source: int) -> int:
        """Number of arrows from ``source`` to ``target``."""
        if not (0 <= target < self.n and 0 <= source < self.n):
            self._check_vertex(target, source)  # names the vertex out of range
        return self.c.item(target, source)

    def vertices(self) -> range:
        return range(self.n)

    def arrows_from(self, source: int) -> Iterator[Arrow]:
        """All arrows leaving ``source``, ordered by (target, index)."""
        self._check_vertex(source)
        for target, count in enumerate(self.c[:, source].tolist()):
            for index in range(count):
                yield Arrow(source, target, index)

    def arrows(self) -> Iterator[Arrow]:
        """All arrows, ordered by (target, source, index)."""
        for target, source, count in self._nonempty_blocks:
            for index in range(count):
                yield Arrow(source, target, index)

    @cached_property
    def _nonempty_blocks(self) -> tuple[tuple[int, int, int], ...]:
        """``(target, source, count)`` of every block that holds an arrow, in
        (target, source) order, as Python ints; a walk over the blocks costs
        the number of blocks, not n^2."""
        targets, sources = divmod(self._keys, self.n)
        return tuple(zip(targets.tolist(), sources.tolist(), self._sizes.tolist()))

    def block_start(self, target: int, source: int) -> int:
        """Position in ``arrows()`` of the first arrow from ``source`` to
        ``target``; the rest of that block follows it in index order."""
        if not (0 <= target < self.n and 0 <= source < self.n):
            self._check_vertex(target, source)  # names the vertex out of range
        # (target, source) sorts before its own block's triple and after every earlier one
        return self._starts.item(bisect_left(self._nonempty_blocks, (target, source)))

    def arrow_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The (sources, targets) of all arrows as read-only int arrays, in
        ``arrows()`` order; built once per quiver, and refused past
        ``PATH_LIMIT`` arrows."""
        return self._arrow_ends

    @cached_property
    def _arrow_ends(self) -> tuple[np.ndarray, np.ndarray]:
        _check_arrow_count(self.total_arrows())
        targets, sources = divmod(np.repeat(self._keys, self._sizes), self.n)
        sources.flags.writeable = targets.flags.writeable = False
        return sources, targets

    @cached_property
    def _by_source(self) -> tuple[np.ndarray, np.ndarray]:
        """The positions in ``arrows()`` grouped by source, each group in
        ``arrows_from`` order, and the n + 1 group bounds; read-only."""
        sources = self._arrow_ends[0]
        order = np.argsort(sources, kind="stable")
        bounds = np.searchsorted(sources[order], np.arange(self.n + 1))
        order.flags.writeable = bounds.flags.writeable = False
        return order, bounds

    def block(self, target: int, source: int) -> list[Arrow]:
        """The arrows from ``source`` to ``target``, ordered by index."""
        return [Arrow(source, target, m) for m in range(self.count(target, source))]

    def has_arrow(self, a: Arrow) -> bool:
        return (
            0 <= a.target < self.n
            and 0 <= a.source < self.n
            and 0 <= a.index < self.c.item(a.target, a.source)
        )

    def total_arrows(self) -> int:
        return self._starts.item(-1)

    def _check_vertex(self, *vertices: int) -> None:
        for v in vertices:
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


def _path_count_check(q: Quiver, max_len: int) -> list[int]:
    """Refuse, before anything is allocated, graphs with more than
    ``PATH_LIMIT`` paths of length <= ``max_len`` or with more than
    ``PATH_TOKEN_LIMIT`` arrow tokens in those paths; else return the number
    of paths of each length, up to the last nonempty one.

    The count sum over k <= max_len of 1^T C^k 1 is taken in exact integers,
    level by level over the nonempty blocks of C, and stops at the first
    empty level.  A nonempty level at length >= n holds a path through
    n + 1 vertices, hence a cycle, so every longer level holds at least one
    path: the remaining levels are counted as one path each, which decides
    very large ``max_len`` at once.  The tokens, the sum of k 1^T C^k 1,
    need no such bound: a nonempty level k adds at least k of them, so the
    loop passes ``PATH_TOKEN_LIMIT`` within about sqrt(2 PATH_TOKEN_LIMIT)
    levels.
    """
    n = q.n
    level = [1] * n  # paths of the current length, by end vertex
    sizes = [n]
    total = n
    tokens = 0
    for k in range(1, max_len + 1):
        longer = [0] * n
        for t, s, count in q._nonempty_blocks:
            longer[t] += count * level[s]
        level = longer
        size = sum(level)
        if size == 0:
            break
        sizes.append(size)
        total += size
        tokens += k * size
        if total > PATH_LIMIT or (k >= n and total + (max_len - k) > PATH_LIMIT):
            raise ValueError(
                f"size limit exceeded: refusing more than {PATH_LIMIT} paths "
                f"(lengths up to {max_len})"
            )
        if tokens > PATH_TOKEN_LIMIT:
            raise ValueError(
                f"size limit exceeded: refusing more than {PATH_TOKEN_LIMIT} arrow "
                f"tokens in paths (lengths up to {max_len})"
            )
    return sizes


def _path_levels(q: Quiver, max_len: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The paths of lengths 1..``max_len``, one level at a time, in
    ``enumerate_paths`` order.

    Yields ``(rows, places, ends)`` per nonempty level: path r of the level
    is path ``rows[r]`` of the level before (the vertices before length 1)
    followed by the arrow at ``places[r]`` of ``Quiver._by_source``'s
    ``out_arrow``, and ends at vertex ``ends[r]``.  Each level lists the
    children of the level before it parent by parent, each parent's in
    ``arrows_from`` order, so level 1 is ``out_arrow`` itself.  Graphs with
    more than ``PATH_LIMIT`` such paths, or with more than
    ``PATH_TOKEN_LIMIT`` arrows in them, are refused here, before the walk
    starts and before any array is built.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    sizes = _path_count_check(q, max_len)
    if len(sizes) == 1:  # no arrow, or max_len 0, where nothing bounds the arrows
        return iter(())
    out_arrow, out_start = q._by_source  # out_start[v]: the first arrow leaving v
    out_degree = np.diff(out_start)
    out_end = out_start[1:]
    out_target = q.arrow_ends()[1][out_arrow]
    index = np.arange(max(sizes), dtype=np.intp)

    def walk():
        ends = index[: q.n]  # the end vertices of the level before
        for size in sizes[1:]:
            counts = out_degree[ends]
            last = np.cumsum(counts)  # the position after each parent's last child
            rows = np.repeat(index[: len(ends)], counts)
            # child i of the level is place out_start[e] + i - (last - counts)[r]
            # of its parent r, which ends at e
            places = (out_end[ends] - last)[rows] + index[:size]
            ends = out_target[places]
            yield rows, places, ends

    return walk()


def enumerate_paths(q: Quiver, max_len: int) -> list[Path]:
    """All paths of length at most ``max_len``.

    The order is deterministic: by length, then by the canonical per-length
    order of :meth:`Path.sort_key`.  This ordering fixes the basis of every
    matrix built downstream, so runs are reproducible bit for bit.  Each
    level of ``_path_levels``, which defines that order, extends the paths
    of the level before it, and graphs with more than ``PATH_LIMIT`` paths,
    or more than ``PATH_TOKEN_LIMIT`` arrows in them, are refused.
    """
    levels = _path_levels(q, max_len)
    arrows = tuple(q.arrows()) if max_len else ()  # only then has the count bounded them
    out_arrows = [arrows[k] for k in q._by_source[0].tolist()] if arrows else []
    level = [Path(v) for v in q.vertices()]
    out = list(level)
    for rows, places, _ in levels:
        level = [
            Path(level[r].base, level[r].arrows + (out_arrows[k],))
            for r, k in zip(rows.tolist(), places.tolist())
        ]
        out += level
    return out


def apply_permutation(q: Quiver, tau: Sequence[int]) -> Quiver:
    """Relabel vertices: the result has ``c'[i][j] = c[tau[i]][tau[j]]``; each
    nonempty block (t, s) is written at (tau^-1(t), tau^-1(s)) of a zero matrix."""
    tau = tuple(int(t) if isinstance(t, np.integer) else t for t in tau)
    # a bool, float or string entry is refused, not rounded or parsed
    if any(type(t) is not int for t in tau) or sorted(tau) != list(range(q.n)):
        raise ValueError(f"not a permutation of 0..{q.n - 1}: {tau!r}")
    n, inv = q.n, np.empty(q.n, dtype=np.intp)
    inv.put(tau, range(n))  # tau^-1
    targets, sources = divmod(q._keys, n)
    c = np.zeros(n * n, dtype=np.int64)
    c[inv[targets] * n + inv[sources]] = q._sizes
    return Quiver._of_counts(c.reshape(n, n))


def _vertex_signatures(c: np.ndarray) -> list[tuple]:
    """Per vertex: its loop count and the sorted multisets of its off-diagonal
    out- and in-multiplicities (its column and its row without the loop).  A
    vertex permutation carrying one graph onto another maps every vertex to
    one of equal signature."""
    m = c.copy()
    m.flat[:: len(c) + 1] = -1  # below every count: the loops sort first and are dropped
    outs, ins = (np.sort(x)[:, 1:].tolist() for x in (m.T, m))
    return list(zip(c.diagonal().tolist(), map(tuple, outs), map(tuple, ins)))


def _check_iso_size(n: int) -> None:
    """Refuse an isomorphism search on more than ``ISO_VERTEX_LIMIT`` vertices."""
    if n > ISO_VERTEX_LIMIT:
        raise ValueError(
            f"size limit exceeded: refusing isomorphism search on {n} > "
            f"{ISO_VERTEX_LIMIT} vertices"
        )


def _check_arrow_count(count: int) -> None:
    """Refuse a vector with one entry per arrow for more than ``PATH_LIMIT``
    arrows (the paths of length 1), before it is allocated."""
    if count > PATH_LIMIT:
        raise ValueError(
            f"size limit exceeded: refusing a vector over {count} > {PATH_LIMIT} arrows"
        )


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
    _check_iso_size(q1.n)
    sig1, sig2 = _vertex_signatures(q1.c), _vertex_signatures(q2.c)
    if sorted(sig1) != sorted(sig2):
        return None
    n, c1, c2 = q1.n, q1.c.tolist(), q2.c.tolist()  # the search reads one entry at a time
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
