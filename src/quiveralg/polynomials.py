"""Finite linear combinations of paths, multiplied by path composition.

Products of non-composable monomials are zero and vanish from the term map;
the sum of all vertex monomials is the unit.  Polynomial degree is capped at
``MAX_DEGREE`` to guard against runaway coefficient blowup.

Text form (read by ``parse_polynomial`` and written by ``format_polynomial``;
``format_path`` also names the entries of the CLI's ``paths`` report), with
1-based vertex and arrow numbers:

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := atom ('*' atom)*
    atom   := arrow | vertex | scalar
    arrow  := I '<' J ':' K     # the K-th arrow from vertex J to vertex I
    vertex := 'v' I             # the length-0 path at vertex I
    scalar := complex literal accepted by Python's complex(), e.g. 2, 0.5,
              1j, (1+2j)

Monomials multiply like the paths they name: "a*b" means "a after b", so a
length-2 path walked first along b then along a prints as "a*b".

``parse_polynomial`` reads the tokens in one pass.  A malformed text raises
at its first fault: an untokenizable character, then, term by term, a
non-finite coefficient before a missing operator after the term.
"""

from __future__ import annotations

import cmath
import re
from functools import reduce
from typing import Mapping, Optional

from .correspondence import CorrespondenceElement
from .quiver import Arrow, Path, Quiver, arrow_path, compose, vertex_path

#: largest degree a product is allowed to reach
MAX_DEGREE = 16


class PathPolynomial:
    """A finitely supported map from paths to complex coefficients; NaN and
    infinite coefficients are refused."""

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver: Quiver, terms: Optional[Mapping[Path, complex]] = None):
        self.quiver = quiver
        clean: dict[Path, complex] = {}
        if terms:
            for path, coeff in terms.items():
                self._check_path(quiver, path)
                z = complex(coeff)
                if not cmath.isfinite(z):
                    raise ValueError(f"coefficients must be finite, got {z}")
                if z != 0:
                    clean[path] = z
        self.terms = clean

    @classmethod
    def _of_valid_paths(cls, quiver: Quiver, terms: Mapping[Path, complex]) -> "PathPolynomial":
        """The polynomial with these complex terms, zeros dropped, when every
        path is already known to be one of the quiver's: no path is checked,
        but a non-finite coefficient kept (an overflow, or a NaN scalar) is
        refused as the constructor refuses it."""
        p = cls(quiver)
        p.terms = {path: z for path, z in terms.items() if z != 0}
        if not all(map(cmath.isfinite, p.terms.values())):
            bad = next(z for z in p.terms.values() if not cmath.isfinite(z))
            raise ValueError(f"coefficients must be finite, got {bad}")
        return p

    @staticmethod
    def _check_path(quiver: Quiver, path: Path) -> None:
        if not 0 <= path.base < quiver.n:
            raise ValueError(f"path base {path.base} out of range")
        for a in path.arrows:
            if not quiver.has_arrow(a):
                raise ValueError(f"{a!r} is not an arrow of this quiver")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, quiver: Quiver) -> "PathPolynomial":
        return cls(quiver)

    @classmethod
    def monomial(cls, quiver: Quiver, path: Path, coeff: complex = 1.0):
        return cls(quiver, {path: coeff})

    @classmethod
    def vertex(cls, quiver: Quiver, vertex: int) -> "PathPolynomial":
        quiver._check_vertex(vertex)
        return cls(quiver, {vertex_path(vertex): 1.0})

    @classmethod
    def arrow(cls, quiver: Quiver, a: Arrow) -> "PathPolynomial":
        return cls(quiver, {arrow_path(a): 1.0})

    @classmethod
    def unit(cls, quiver: Quiver) -> "PathPolynomial":
        """The sum of all vertex monomials (the identity of the algebra)."""
        return cls(quiver, {vertex_path(v): 1.0 for v in quiver.vertices()})

    @classmethod
    def from_correspondence(cls, xi: CorrespondenceElement) -> "PathPolynomial":
        """The degree-1 polynomial whose arrow coefficients are the components of xi."""
        terms = {arrow_path(a): z for a, z in zip(xi.quiver.arrows(), xi.vector.tolist())}
        return cls(xi.quiver, terms)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Largest path length present; -1 for the zero polynomial."""
        return max((p.length for p in self.terms), default=-1)

    def coefficient(self, path: Path) -> complex:
        return self.terms.get(path, 0j)

    def coeff_norm(self) -> float:
        """Largest coefficient magnitude (0 for the zero polynomial)."""
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def items(self):
        return self.terms.items()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PathPolynomial)
            and self.quiver == other.quiver
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("PathPolynomial is not hashable")

    # -- arithmetic --------------------------------------------------------

    def _require_same_quiver(self, other: "PathPolynomial") -> None:
        if self.quiver != other.quiver:
            raise ValueError("polynomials live over different quivers")

    def __add__(self, other: "PathPolynomial") -> "PathPolynomial":
        self._require_same_quiver(other)
        terms = dict(self.terms)
        for path, coeff in other.terms.items():
            terms[path] = terms.get(path, 0j) + coeff
        return PathPolynomial._of_valid_paths(self.quiver, terms)

    def __sub__(self, other: "PathPolynomial") -> "PathPolynomial":
        return self + (-1.0) * other

    def __neg__(self) -> "PathPolynomial":
        return (-1.0) * self

    def scaled(self, scalar: complex) -> "PathPolynomial":
        z = complex(scalar)
        return PathPolynomial._of_valid_paths(self.quiver, {p: z * c for p, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PathPolynomial):
            self._require_same_quiver(other)
            if self.terms and other.terms and self.degree + other.degree > MAX_DEGREE:
                raise ValueError(
                    f"degree cap exceeded: product would reach degree "
                    f"{self.degree + other.degree} > {MAX_DEGREE}"
                )
            terms: dict[Path, complex] = {}
            for u, cu in self.terms.items():
                for v, cv in other.terms.items():
                    w = compose(u, v)
                    if w is not None:
                        terms[w] = terms.get(w, 0j) + cu * cv
            # a composition of two of this quiver's paths is one of its paths
            return PathPolynomial._of_valid_paths(self.quiver, terms)
        return self.scaled(other)

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"PathPolynomial({format_polynomial(self)!r})"


def _evaluate(p: PathPolynomial, vertex, arrow, zero):
    """The image of p under the representation fixed by its values on the
    vertices and the arrows: a vertex path v maps to ``vertex(v)``, a longer
    path to ``arrow(a_last) @ ... @ arrow(a_first)``, extended linearly from
    ``zero``."""
    total = zero
    for path, coeff in p.items():
        if path.arrows:
            mono = reduce(lambda acc, a: arrow(a) @ acc, path.arrows[1:], arrow(path.arrows[0]))
        else:
            mono = vertex(path.base)
        total = total + coeff * mono
    return total


# -- text form ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<arrow>\d+<\d+:\d+)
    | (?P<vertex>v\d+)
    | (?P<cplx>\([^()]*\))
    | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?[jJ]?)
    | (?P<op>[+\-*])
    | (?P<ws>\s+)
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            pos = m.start()
            raise ValueError(f"cannot tokenize polynomial text at position {pos}: {text[pos:pos + 12]!r}")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group()))
    return tokens


def format_path(path: Path) -> str:
    """Text form of a monomial: 'v3' or arrow tokens in operator order."""
    if not path.arrows:
        return f"v{path.base + 1}"
    return "*".join(
        f"{a.target + 1}<{a.source + 1}:{a.index + 1}" for a in reversed(path.arrows)
    )


def format_polynomial(p: PathPolynomial) -> str:
    if not p.terms:
        return "0"
    parts = []
    for path in sorted(p.terms, key=Path.sort_key):
        coeff = str(p.terms[path])
        if coeff.startswith("-"):  # a bare pure imaginary; its sign would parse as an operator
            coeff = f"({coeff})"
        parts.append(f"{coeff}*{format_path(path)}")
    return " + ".join(parts)


def _parse_arrow_token(q: Quiver, token: str) -> Path:
    head, k = token.split(":")
    i, j = head.split("<")
    target, source, index = int(i) - 1, int(j) - 1, int(k) - 1
    if not (0 <= target < q.n and 0 <= source < q.n):
        raise ValueError(f"arrow token {token!r}: vertex out of range 1..{q.n}")
    if not 0 <= index < q.count(target, source):
        raise ValueError(
            f"arrow token {token!r}: index out of range, the quiver has "
            f"{q.count(target, source)} arrows {source + 1} -> {target + 1}"
        )
    return arrow_path(Arrow(source, target, index))


def parse_polynomial(q: Quiver, text: str) -> PathPolynomial:
    """Parse the text grammar in the module docstring, in one pass."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    arrow_tokens: dict[str, Path] = {}  # each distinct arrow token is read once
    total: dict[Path, complex] = {}
    sign, coeff, paths = 1.0, 1.0 + 0j, []
    if tokens[0] in (("op", "+"), ("op", "-")):
        sign = -1.0 if tokens.pop(0)[1] == "-" else 1.0
    expect_atom = True  # else an operator, or the end, comes next
    for kind, value in [*tokens, (None, None)]:
        if expect_atom:
            if kind is None:
                raise ValueError("polynomial text ends where a monomial or scalar was expected")
            if kind == "arrow":
                if value not in arrow_tokens:
                    arrow_tokens[value] = _parse_arrow_token(q, value)
                paths.append(arrow_tokens[value])
            elif kind == "vertex":
                v = int(value[1:]) - 1
                if not 0 <= v < q.n:
                    raise ValueError(f"vertex token {value!r} out of range 1..{q.n}")
                paths.append(vertex_path(v))
            elif kind in ("cplx", "num"):
                try:
                    coeff *= complex(value)
                except ValueError as exc:
                    raise ValueError(f"bad complex literal {value!r}") from exc
            else:
                raise ValueError(f"unexpected token {value!r} where a monomial or scalar was expected")
            expect_atom = False
        elif value == "*":
            expect_atom = True
        else:
            # the term ends: its coefficient is checked before the token after it
            if not cmath.isfinite(coeff):
                raise ValueError(f"coefficients must be finite, got {coeff}")
            if not paths:  # coeff times the unit, whose coefficients are 1+0j
                term = [(vertex_path(v), coeff * (1 + 0j)) for v in q.vertices()]
            else:  # a non-composable pair makes the term zero
                path = reduce(lambda u, v: None if u is None else compose(u, v), paths)
                term = [] if path is None else [(path, coeff)]
            # summed term by term; ``_of_valid_paths`` drops the sums that cancel
            for path, c in term:
                if c != 0:
                    total[path] = total.get(path, 0j) + complex(sign) * c
            if kind is None:
                break
            if kind != "op":
                raise ValueError(f"unexpected token {value!r} where '+' or '-' was expected")
            sign, coeff, paths, expect_atom = (-1.0 if value == "-" else 1.0), 1.0 + 0j, [], True
    # every path was checked as it was read; ``_of_valid_paths`` refuses a sum that overflowed
    return PathPolynomial._of_valid_paths(q, total)
