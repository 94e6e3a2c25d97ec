"""Multivariate polynomials with exact coefficients.

Polynomials live over a fixed, ordered tuple of variable names; terms map
dense exponent vectors of ``int`` to ``int`` coefficients over one
positive denominator ``den``, with zero coefficients never stored.  The
pair is canonical, ``gcd(den, *coefficients) == 1`` (the zero polynomial
has ``den == 1``), so equal values have equal fields, and sums, products
and renamings run on Python ints.  The public constructor validates and
coerces its input and takes only non-negative exponents; arithmetic
inside the package builds its results through the trusted
``MultiPoly._make``, which drops zero coefficients and brings the pair to
canonical form.  ``_make`` also takes negative exponents, so the same
class is the ring of Laurent polynomials: a monomial has one
representation, and sums, products and structural equality need no
division (``symbolic`` keeps its rational functions this way).
``poly_tree`` is the one walk that orders the terms (graded-lex: total
degree first, then the exponent vector) and writes their coefficients
and powers; ``str`` renders that tree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, itemgetter
from typing import Callable, Mapping, Sequence

from .exact_linalg import as_rational, rational_str

__all__ = [
    "MultiPoly",
]


class MultiPoly:
    """Dense-exponent multivariate polynomial: integer coefficients
    ``terms`` over one positive denominator ``den``.

    Only ``_make`` (and ``_monomial``, which calls it) accepts negative
    exponents, which make the value a Laurent polynomial; the public
    constructor still rejects them.
    """

    __slots__ = ("vars", "terms", "den")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], int | str | Fraction] | None = None,
    ):
        names = tuple(variables)
        width = len(names)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            e = tuple(exps)
            if len(e) != width or any(type(x) is not int or x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e} for {width} variables")
            clean[e] = as_rational(coeff)
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.vars = names
        self.terms = {e: c.numerator * (den // c.denominator) for e, c in clean.items() if c}
        self.den = den if self.terms else 1

    @classmethod
    def _make(
        cls, names: tuple[str, ...], terms: Mapping[tuple[int, ...], int], den: int = 1
    ) -> "MultiPoly":
        """Trusted constructor for terms built by the package itself: exponent
        vectors (negative entries included) and int coefficients over a
        positive ``den`` are taken as valid; zero coefficients are dropped
        and the pair is brought to canonical form."""
        obj = object.__new__(cls)
        obj.vars = names
        terms = {e: c for e, c in terms.items() if c}
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                terms = {e: c // g for e, c in terms.items()}
                den //= g
        obj.terms = terms
        obj.den = den
        return obj

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, variables: Sequence[str], value: int | str | Fraction) -> "MultiPoly":
        names = tuple(variables)
        if type(value) is not int:
            value = as_rational(value)
        return cls._make(names, {(0,) * len(names): value.numerator}, value.denominator)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        names = tuple(variables)
        idx = names.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(names)))
        return cls._make(names, {exps: 1})

    @classmethod
    def _monomial(cls, names: tuple[str, ...], exps: tuple[int, ...]) -> "MultiPoly":
        """Trusted constructor of the monomial with exponent vector
        ``exps``, negative entries included: the one way other modules
        build a Laurent monomial, since ``_make`` stays inside this one."""
        return cls._make(names, {exps: 1})

    # -- basic structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _renamed(self, variables: Sequence[int]) -> "MultiPoly":
        """Trusted image under a renaming of the variables: variable q of
        the result is variable ``variables[q]`` of ``self``.  A permutation
        of exponent positions keeps the pair canonical."""
        if len(variables) < 2:
            return self  # the one renaming of at most one variable
        image = itemgetter(*variables)
        obj = object.__new__(MultiPoly)
        obj.vars = self.vars
        obj.terms = {image(e): c for e, c in self.terms.items()}
        obj.den = self.den
        return obj

    def _fraction(
        self, powers: Callable[[int], "MultiPoly"]
    ) -> tuple["MultiPoly", tuple[int, ...]]:
        """A Laurent polynomial as a fraction: the least exponent vector
        e >= 0 for which self * x^e is a polynomial, and that polynomial
        with the first variable replaced by a polynomial q.  ``powers(j)``
        is q**j with integer coefficients; the numerator lives over its
        variables, which keep every other position."""
        clear = tuple(max(0, -min(col)) for col in zip(*self.terms)) or (0,) * len(self.vars)
        acc: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            shifted = list(map(add, e, clear))
            j, shifted[0] = shifted[0], 0
            for e2, c2 in powers(j).terms.items():
                t = tuple(map(add, shifted, e2))
                acc[t] = acc[t] + c * c2 if t in acc else c * c2
        return MultiPoly._make(powers(0).vars, acc, self.den), clear

    # -- arithmetic -----------------------------------------------------

    def _require_same_vars(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """self + sign·other over the lcm of the two denominators."""
        self._require_same_vars(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        acc = dict(self.terms) if fa == 1 else {e: fa * c for e, c in self.terms.items()}
        for e, c in other.terms.items():
            acc[e] = acc[e] + fb * c if e in acc else fb * c
        return MultiPoly._make(self.vars, acc, den)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.vars, {e: -c for e, c in self.terms.items()}, self.den)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._require_same_vars(other)
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
        return MultiPoly._make(self.vars, acc, self.den * other.den)

    def __pow__(self, power: int) -> "MultiPoly":
        if power < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.vars, 1)
        base = self
        n = power
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.den == other.den
            and self.terms == other.terms
        )

    __hash__ = None  # mutable dict inside; value semantics via ==

    def eval(self, values: Mapping[str, int | str | Fraction]) -> Fraction:
        point = [as_rational(values[name]) for name in self.vars]
        total = Fraction(0)
        for e, c in self.terms.items():
            prod = c
            for base, power in zip(point, e):
                if power:
                    prod *= base**power
            total += prod
        return total / self.den

    def __str__(self) -> str:
        return _tree_text(poly_tree(self))

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# -- structured expression export ----------------------------------------


def poly_tree(p: MultiPoly) -> dict:
    """The terms of p, highest first in graded-lex order, each with its
    reduced coefficient text and its nonzero powers."""
    terms = []
    for e in sorted(p.terms, key=lambda x: (sum(x), x), reverse=True):
        powers = {name: power for name, power in zip(p.vars, e) if power}
        terms.append(
            {"op": "term", "coefficient": rational_str(p.terms[e], p.den), "powers": powers}
        )
    return {"op": "sum", "terms": terms}


def _tree_text(tree: dict) -> str:
    """The text of a ``poly_tree``: ``mono``, ``-mono``, ``c*mono`` or
    ``c`` per term, joined with `` + `` and `` - ``; ``"0"`` for no terms."""
    out = ""
    for term in tree["terms"]:
        c = term["coefficient"]
        mono = "*".join(n if p == 1 else f"{n}^{p}" for n, p in term["powers"].items())
        piece = c if not mono else mono if c == "1" else f"-{mono}" if c == "-1" else f"{c}*{mono}"
        if out:
            piece = f" - {piece[1:]}" if piece[0] == "-" else f" + {piece}"
        out += piece
    return out or "0"
