"""Multivariate polynomials and rational functions with exact coefficients.

Polynomials live over a fixed, ordered tuple of variable names; terms map
dense exponent vectors of non-negative ``int`` to ``fractions.Fraction``
coefficients, with zero coefficients never stored.  The public constructor
validates and coerces its input; arithmetic inside the module builds its
results through the trusted ``MultiPoly._make``, which only drops zero
coefficients.  Monomials are compared graded-lexicographically (total
degree first, then the exponent vector), which fixes leading terms,
printing order, and sign conventions.

Rational functions are kept fully reduced at all times: numerator and
denominator are divided by their polynomial GCD and scaled so the
denominator is primitive with integer coefficients and a positive leading
coefficient.  The GCD first reduces each side to its content in the
variables the other side lacks, so the primitive pseudo-remainder
sequence, recursing over the variables, only ever runs on two
polynomials in the same variables.  Structural equality of the reduced
pairs is therefore a sound and complete equality test for the
represented functions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Mapping, Sequence

from .exact_linalg import as_rational

__all__ = [
    "MultiPoly",
    "RatFunc",
    "ZeroDenominator",
    "poly_divexact",
    "poly_gcd",
    "poly_tree",
    "ratfunc_tree",
]


class ZeroDenominator(ZeroDivisionError):
    """A rational function with zero denominator was requested."""


def _grlex_key(exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exponents), exponents)


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.gcd(a.numerator, b.numerator),
        math.lcm(a.denominator, b.denominator),
    )


class MultiPoly:
    """Dense-exponent multivariate polynomial over Fraction coefficients."""

    __slots__ = ("vars", "terms")

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
            c = as_rational(coeff)
            if c != 0:
                clean[e] = c
        self.vars = names
        self.terms = clean

    @classmethod
    def _make(
        cls, names: tuple[str, ...], terms: Mapping[tuple[int, ...], Fraction]
    ) -> "MultiPoly":
        """Trusted constructor for terms built by the kernel itself: exponent
        vectors and Fraction coefficients are taken as valid, and only zero
        coefficients are dropped."""
        obj = object.__new__(cls)
        obj.vars = names
        obj.terms = {e: c for e, c in terms.items() if c}
        return obj

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls._make(tuple(variables), {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: int | str | Fraction) -> "MultiPoly":
        names = tuple(variables)
        return cls._make(names, {(0,) * len(names): as_rational(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        names = tuple(variables)
        idx = names.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(names)))
        return cls._make(names, {exps: Fraction(1)})

    # -- basic structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self) -> int:
        """Largest total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, index: int) -> int:
        return max((e[index] for e in self.terms), default=0)

    def degrees(self) -> tuple[int, ...]:
        """Degree in every variable, in one pass; all 0 for the zero poly."""
        if not self.terms:
            return (0,) * len(self.vars)
        return tuple(map(max, zip(*self.terms)))

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def content(self) -> Fraction:
        """Positive rational content (gcd of all coefficients); 0 for zero."""
        if not self.terms:
            return Fraction(0)
        return reduce(_frac_gcd, (abs(c) for c in self.terms.values()))

    def primitive(self) -> "MultiPoly":
        """Divide out the signed content: integer coprime coefficients,
        positive leading coefficient."""
        if not self.terms:
            return self
        c = self.content()
        if self.leading()[1] < 0:
            c = -c
        return self.scale(Fraction(1) / c)

    # -- arithmetic -----------------------------------------------------

    def _require_same_vars(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._require_same_vars(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc[e] + c if e in acc else c
        return MultiPoly._make(self.vars, acc)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._require_same_vars(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc[e] - c if e in acc else -c
        return MultiPoly._make(self.vars, acc)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._require_same_vars(other)
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
        return MultiPoly._make(self.vars, acc)

    def scale(self, factor: int | str | Fraction) -> "MultiPoly":
        f = as_rational(factor)
        if f == 0:
            return MultiPoly.zero(self.vars)
        return MultiPoly._make(self.vars, {e: c * f for e, c in self.terms.items()})

    def _mul_term(self, exponents: tuple[int, ...], coeff: Fraction) -> "MultiPoly":
        """Product with one monomial whose exponents the kernel computed."""
        return MultiPoly._make(
            self.vars,
            {
                tuple(map(add, e, exponents)): c * coeff
                for e, c in self.terms.items()
            },
        )

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
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                name if p == 1 else f"{name}^{p}"
                for name, p in zip(self.vars, e)
                if p > 0
            )
            if not mono:
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = f"-{mono}"
            else:
                piece = f"{c}*{mono}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# -- division and GCD ----------------------------------------------------


def poly_divexact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient f / g; raises ValueError when g does not divide f.

    Repeated leading-term elimination under graded-lex order: for a true
    factorization the leading term of the remainder is always divisible
    by the leading term of g, so failure of that test proves
    non-divisibility.
    """
    f._require_same_vars(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    quotient: dict[tuple[int, ...], Fraction] = {}
    rem = f
    g_exps, g_coeff = g.leading()
    while not rem.is_zero():
        r_exps, r_coeff = rem.leading()
        diff = tuple(a - b for a, b in zip(r_exps, g_exps))
        if any(d < 0 for d in diff):
            raise ValueError("polynomials do not divide exactly")
        c = r_coeff / g_coeff
        quotient[diff] = c
        rem = rem - g._mul_term(diff, c)
    return MultiPoly._make(f.vars, quotient)


def _divides_degreewise(f: MultiPoly, g: MultiPoly) -> bool:
    """Cheap necessary condition for g | f on per-variable degrees."""
    return all(x >= y for x, y in zip(f.degrees(), g.degrees()))


def _try_divexact(f: MultiPoly, g: MultiPoly) -> MultiPoly | None:
    if not _divides_degreewise(f, g):
        return None
    try:
        return poly_divexact(f, g)
    except ValueError:
        return None


def _monomial_content(f: MultiPoly) -> tuple[int, ...]:
    """Per-variable minimum exponent across all terms of a nonzero poly."""
    exps = iter(f.terms)
    lows = list(next(exps))
    for e in exps:
        for i, x in enumerate(e):
            if x < lows[i]:
                lows[i] = x
    return tuple(lows)


def _strip_monomial(f: MultiPoly) -> tuple[tuple[int, ...], MultiPoly]:
    lows = _monomial_content(f)
    if not any(lows):
        return lows, f
    stripped = MultiPoly._make(
        f.vars,
        {tuple(x - m for x, m in zip(e, lows)): c for e, c in f.terms.items()},
    )
    return lows, stripped


def _strip_cheap(f: MultiPoly) -> MultiPoly:
    """Remove rational and monomial content (no recursive polynomial GCDs)."""
    return _strip_monomial(f.primitive())[1]


def _coeff_map(
    f: MultiPoly, idx: tuple[int, ...]
) -> dict[tuple[int, ...], MultiPoly]:
    """View f as a polynomial in the variables idx: their exponents ->
    coefficient polynomial in the remaining variables."""
    keep = tuple(0 if i in idx else 1 for i in range(len(f.vars)))
    out: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for e, c in f.terms.items():
        key = tuple(e[i] for i in idx)
        stripped = tuple(x * m for x, m in zip(e, keep))
        out.setdefault(key, {})[stripped] = c
    return {key: MultiPoly._make(f.vars, terms) for key, terms in out.items()}


def _content_wrt(f: MultiPoly, idx: tuple[int, ...]) -> MultiPoly:
    """GCD of the coefficient polynomials of f viewed as a polynomial in the
    variables idx."""
    coeffs = sorted(_coeff_map(f, idx).values(), key=lambda p: len(p.terms))
    content = coeffs[0].primitive()
    one = MultiPoly.constant(f.vars, 1)
    for c in coeffs[1:]:
        if content == one:
            return one
        content = poly_gcd(content, c)
    return content


def _prem(f: MultiPoly, g: MultiPoly, v: int) -> MultiPoly:
    """Pseudo-remainder of f by g in the variable v, up to multipliers of
    v-degree zero (sufficient for tracking primitive parts)."""
    g_map = _coeff_map(g, (v,))
    (dg,) = max(g_map)
    lc_g = g_map[(dg,)]
    rem = f
    while not rem.is_zero():
        r_map = _coeff_map(rem, (v,))
        (dr,) = max(r_map)
        if dr < dg:
            break
        lc_r = r_map[(dr,)]
        shift = tuple(dr - dg if i == v else 0 for i in range(len(f.vars)))
        rem = lc_g * rem - (lc_r * g)._mul_term(shift, Fraction(1))
    return rem


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """GCD over Q[vars], normalized primitive with positive leading coefficient.

    gcd(0, 0) = 0; nonzero constants are units, so their gcd is 1.  The
    general case strips monomial content, then reduces to the shared
    variables: a common factor divides g, so it is free of every variable
    g lacks, and therefore divides the content of f in those variables
    (the gcd of f's coefficients as a polynomial in them); likewise for
    g.  Each side is replaced by that content and the gcd recurses.  On
    two polynomials in the same variables it tries exact trial divisions
    and falls back to a pseudo-remainder sequence in a common variable of
    minimal degree.  Remainders are renormalized per step only by rational
    and monomial content (both unit-cheap and provably disjoint from the
    gcd once monomial content is stripped up front); the single recursive
    content computation happens at the ends, not inside the loop.
    """
    f._require_same_vars(g)
    if f.is_zero() and g.is_zero():
        return f
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    lows_f, f = _strip_monomial(f)
    lows_g, g = _strip_monomial(g)
    shared = tuple(min(a, b) for a, b in zip(lows_f, lows_g))
    monomial = MultiPoly._make(f.vars, {shared: Fraction(1)})
    if f.is_constant() or g.is_constant():
        return monomial
    if f == g or f == -g:
        return (monomial * f).primitive()
    deg_f, deg_g = f.degrees(), g.degrees()
    common = [i for i, (x, y) in enumerate(zip(deg_f, deg_g)) if x and y]
    if not common:
        return monomial  # disjoint supports: no non-unit common factor
    # a common factor lives in the shared variables only: reduce each side
    # to its content in the variables the other side lacks
    own_f = tuple(i for i, (x, y) in enumerate(zip(deg_f, deg_g)) if x and not y)
    own_g = tuple(i for i, (x, y) in enumerate(zip(deg_f, deg_g)) if y and not x)
    if own_f or own_g:
        reduced_f = _content_wrt(f, own_f) if own_f else f
        reduced_g = _content_wrt(g, own_g) if own_g else g
        return (monomial * poly_gcd(reduced_f, reduced_g)).primitive()
    # exact trial division settles the nested-factor cases outright
    if f.total_degree() >= g.total_degree():
        if _try_divexact(f, g) is not None:
            return (monomial * g).primitive()
    elif _try_divexact(g, f) is not None:
        return (monomial * f).primitive()
    v = min(common, key=lambda i: min(deg_f[i], deg_g[i]))
    cont_f = _content_wrt(f, (v,))
    cont_g = _content_wrt(g, (v,))
    cont = poly_gcd(cont_f, cont_g)
    prim_f = poly_divexact(f, cont_f)
    prim_g = poly_divexact(g, cont_g)
    if prim_f.degree_in(v) < prim_g.degree_in(v):
        prim_f, prim_g = prim_g, prim_f
    while not prim_g.is_zero() and prim_g.degree_in(v) > 0:
        rem = _prem(prim_f, prim_g, v)
        prim_f = prim_g
        prim_g = rem if rem.is_zero() else _strip_cheap(rem)
    if prim_g.is_zero():
        core = poly_divexact(prim_f, _content_wrt(prim_f, (v,)))
    else:
        core = MultiPoly.constant(f.vars, 1)  # coprime in the chosen variable
    return (monomial * cont * core).primitive()


# -- rational functions ---------------------------------------------------


def _unit_scaled(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Scale a reduced pair so den is primitive-integer with positive
    leading coefficient (den assumed nonzero, num nonzero)."""
    scale = den.content()
    if den.leading()[1] < 0:
        scale = -scale
    if scale == 1:
        return num, den
    inv = Fraction(1) / scale
    return num.scale(inv), den.scale(inv)


class RatFunc:
    """Reduced fraction of two MultiPoly values over the same variables."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.constant(num.vars, 1)
        num._require_same_vars(den)
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero():
            den = MultiPoly.constant(num.vars, 1)
        else:
            # constants are units: no polynomial cancellation possible
            if not (num.is_constant() or den.is_constant()):
                g = poly_gcd(num, den)
                if not g.is_constant():
                    num = poly_divexact(num, g)
                    den = poly_divexact(den, g)
            num, den = _unit_scaled(num, den)
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num: MultiPoly, den: MultiPoly) -> "RatFunc":
        """Trusted constructor for pairs already in canonical form."""
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, variables: Sequence[str], value: int | str | Fraction) -> "RatFunc":
        return cls(MultiPoly.constant(variables, value))

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "RatFunc":
        return cls(MultiPoly.variable(variables, name))

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    __hash__ = None

    # -- field arithmetic -------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        d = poly_gcd(self.den, other.den)
        if d.is_constant():
            return RatFunc(
                self.num * other.den + other.num * self.den,
                self.den * other.den,
            )
        left = poly_divexact(self.den, d)
        right = poly_divexact(other.den, d)
        return RatFunc(self.num * right + other.num * left, self.den * right)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        if self.is_zero():
            return self
        return RatFunc._reduced(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero() or other.is_zero():
            return RatFunc.constant(self.num.vars, 0)
        # cancel across the diagonal: the leftovers are pairwise coprime,
        # so the product is already reduced
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1.is_constant() else poly_divexact(self.num, g1)
        d2 = other.den if g1.is_constant() else poly_divexact(other.den, g1)
        n2 = other.num if g2.is_constant() else poly_divexact(other.num, g2)
        d1 = self.den if g2.is_constant() else poly_divexact(self.den, g2)
        return RatFunc._reduced(*_unit_scaled(n1 * n2, d1 * d2))

    def _reciprocal(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDenominator("reciprocal of the zero rational function")
        return RatFunc._reduced(*_unit_scaled(self.den, self.num))

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other._reciprocal()

    def __pow__(self, power: int) -> "RatFunc":
        if power < 0:
            return self._reciprocal() ** (-power)
        if power == 0:
            return RatFunc.constant(self.num.vars, 1)
        # powers of a reduced pair stay reduced; normalized den stays normalized
        return RatFunc._reduced(self.num**power, self.den**power)

    def eval(self, values: Mapping[str, int | str | Fraction]) -> Fraction:
        den_val = self.den.eval(values)
        if den_val == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.num.eval(values) / den_val

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.content() == 1 and not self.den.is_zero():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


# -- structured expression export ----------------------------------------


def poly_tree(p: MultiPoly) -> dict:
    terms = []
    for e in sorted(p.terms, key=_grlex_key, reverse=True):
        powers = {name: power for name, power in zip(p.vars, e) if power > 0}
        terms.append(
            {"op": "term", "coefficient": str(p.terms[e]), "powers": powers}
        )
    return {"op": "sum", "terms": terms}


def ratfunc_tree(f: RatFunc) -> dict:
    return {
        "op": "div",
        "numerator": poly_tree(f.num),
        "denominator": poly_tree(f.den),
    }
