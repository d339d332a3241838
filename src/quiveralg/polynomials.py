"""Finite linear combinations of paths, multiplied by path composition.

Products of non-composable monomials are zero and vanish from the term map;
the sum of all vertex monomials is the unit.  A product with a single vertex
monomial z * e_v is a filter: it keeps the other factor's terms that end at
v (vertex on the left) or start at v (on the right), scaled by z, in their
order.  Polynomial degree is capped at ``MAX_DEGREE`` to guard against
runaway coefficient blowup.

Text form (used by the CLI), with 1-based vertex and arrow numbers:

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := atom ('*' atom)*
    atom   := arrow | vertex | scalar
    arrow  := I '<' J ':' K     # the K-th arrow from vertex J to vertex I
    vertex := 'v' I             # the length-0 path at vertex I
    scalar := complex literal accepted by Python's complex(), e.g. 2, 0.5,
              1j, (1+2j)

Monomials multiply like the paths they name: "a*b" means "a after b", so a
length-2 path walked first along b then along a prints as "a*b".
"""

from __future__ import annotations

import re
from typing import Mapping, Optional

from .correspondence import CorrespondenceElement
from .quiver import Arrow, Path, Quiver, arrow_path, compose, vertex_path

#: largest degree a product is allowed to reach
MAX_DEGREE = 16


class PathPolynomial:
    """A finitely supported map from paths to complex coefficients."""

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver: Quiver, terms: Optional[Mapping[Path, complex]] = None):
        self.quiver = quiver
        clean: dict[Path, complex] = {}
        if terms:
            for path, coeff in terms.items():
                self._check_path(quiver, path)
                z = complex(coeff)
                if z != 0:
                    clean[path] = z
        self.terms = clean

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
        terms = {}
        for a in xi.quiver.arrows():
            z = xi.component(a)
            if z != 0:
                terms[arrow_path(a)] = z
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
        return PathPolynomial(self.quiver, terms)

    def __sub__(self, other: "PathPolynomial") -> "PathPolynomial":
        return self + (-1.0) * other

    def __neg__(self) -> "PathPolynomial":
        return (-1.0) * self

    def scaled(self, scalar: complex) -> "PathPolynomial":
        z = complex(scalar)
        return PathPolynomial(self.quiver, {p: z * c for p, c in self.terms.items()})

    def _vertex_monomial(self) -> Optional[tuple[int, complex]]:
        """(vertex, coefficient) when this is a single length-0 monomial."""
        if len(self.terms) != 1:
            return None
        ((path, coeff),) = self.terms.items()
        return None if path.arrows else (path.base, coeff)

    def _filtered(self, z: complex, keep) -> "PathPolynomial":
        """z times the terms whose paths pass ``keep``, in term order: the
        product with a vertex monomial.  The vertex adds no degree, so the
        degree cap is the one of this factor.  The paths are already this
        quiver's and are not checked again; products that underflow to zero
        are still dropped.
        """
        out = PathPolynomial.__new__(PathPolynomial)
        out.quiver = self.quiver
        out.terms = {}
        for path, coeff in self.terms.items():
            if len(path.arrows) > MAX_DEGREE:
                raise ValueError(
                    f"degree cap exceeded: product would reach degree "
                    f"{self.degree} > {MAX_DEGREE}"
                )
            if keep(path):
                w = z * coeff
                if w != 0:
                    out.terms[path] = w
        return out

    def __mul__(self, other):
        if isinstance(other, PathPolynomial):
            self._require_same_quiver(other)
            left, right = self._vertex_monomial(), other._vertex_monomial()
            if left is not None:
                v, z = left
                return other._filtered(z, lambda p: p.target == v)
            if right is not None:
                v, z = right
                return self._filtered(z, lambda p: p.source == v)
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
            return PathPolynomial(self.quiver, terms)
        return self.scaled(other)

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"PathPolynomial({format_polynomial(self)!r})"


# -- text form ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<arrow>\d+<\d+:\d+)
    | (?P<vertex>v\d+)
    | (?P<cplx>\([^()]*\))
    | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?[jJ]?)
    | (?P<op>[+\-*])
    | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize polynomial text at position {pos}: {text[pos:pos + 12]!r}")
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group()))
        pos = m.end()
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
        coeff = p.terms[path]
        parts.append(f"{coeff}*{format_path(path)}")
    return " + ".join(parts)


def _parse_arrow_token(q: Quiver, token: str) -> Path:
    head, k = token.split(":")
    i, j = head.split("<")
    target, source, index = int(i) - 1, int(j) - 1, int(k) - 1
    a = Arrow(source, target, index)
    if not (0 <= target < q.n and 0 <= source < q.n):
        raise ValueError(f"arrow token {token!r}: vertex out of range 1..{q.n}")
    if not q.has_arrow(a):
        raise ValueError(
            f"arrow token {token!r}: index out of range, the quiver has "
            f"{q.c[target][source]} arrows {source + 1} -> {target + 1}"
        )
    return arrow_path(a)


def parse_polynomial(q: Quiver, text: str) -> PathPolynomial:
    """Parse the text grammar in the module docstring."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None)

    def parse_atom():
        nonlocal pos
        kind, value = peek()
        pos += 1
        if kind == "arrow":
            return ("path", _parse_arrow_token(q, value))
        if kind == "vertex":
            v = int(value[1:]) - 1
            if not 0 <= v < q.n:
                raise ValueError(f"vertex token {value!r} out of range 1..{q.n}")
            return ("path", vertex_path(v))
        if kind in ("cplx", "num"):
            try:
                return ("scalar", complex(value))
            except ValueError as exc:
                raise ValueError(f"bad complex literal {value!r}") from exc
        raise ValueError(f"unexpected token {value!r} where a monomial or scalar was expected")

    def parse_term():
        nonlocal pos
        coeff = 1.0 + 0j
        path: Optional[Path] = None
        dead = False
        while True:
            kind, atom = parse_atom()
            if kind == "scalar":
                coeff *= atom
            else:
                if path is None:
                    path = atom
                else:
                    path = compose(path, atom)
                    if path is None:
                        dead = True  # zero product; keep parsing for syntax
                        path = atom  # placeholder, result discarded
            k, v = peek()
            if k == "op" and v == "*":
                pos += 1
                continue
            break
        if dead:
            return PathPolynomial.zero(q)
        if path is None:
            return PathPolynomial.unit(q).scaled(coeff)
        return PathPolynomial.monomial(q, path, coeff)

    result = PathPolynomial.zero(q)
    sign = 1.0
    kind, value = peek()
    if kind == "op" and value in "+-":
        sign = -1.0 if value == "-" else 1.0
        pos += 1
    while True:
        result = result + parse_term().scaled(sign)
        kind, value = peek()
        if kind is None:
            return result
        if kind == "op" and value in "+-":
            sign = -1.0 if value == "-" else 1.0
            pos += 1
        else:
            raise ValueError(f"unexpected token {value!r} where '+' or '-' was expected")
