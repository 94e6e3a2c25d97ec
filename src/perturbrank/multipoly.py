"""Multivariate polynomials and rational functions with exact coefficients.

Polynomials live over a fixed, ordered tuple of variable names; terms map
dense exponent vectors of non-negative ``int`` to ``int`` coefficients
over one positive denominator ``den``, with zero coefficients never
stored.  The pair is canonical, ``gcd(den, *coefficients) == 1`` (the
zero polynomial has ``den == 1``), so equal values have equal fields,
and sums, products and quotients run on Python ints.  The public
constructor validates and coerces its input; arithmetic inside the
module builds its results through the trusted ``MultiPoly._make``, which
drops zero coefficients and brings the pair to canonical form.
Monomials are compared graded-lexicographically (total degree first,
then the exponent vector), which fixes leading terms, printing order,
and sign conventions.

A rational function is a numerator over powers of a fixed factor base,
``num / prod(base[i] ** exps[i])``.  The caller promises that the base
factors are irreducible over Q and pairwise non-associate, so each is a
prime of Q[vars]: the lcm of two denominators is the elementwise max of
their exponents, and a fraction is reduced exactly when no factor with a
positive exponent divides the numerator, which trial division
(``poly_divexact``) decides.  The public ``RatFunc`` constructor checks
the rest of the form: every factor is non-constant, primitive with
integer coefficients and has a positive leading coefficient.  By Gauss's
lemma the expanded denominator is then primitive with a positive leading
coefficient too, so the reduced pair is unique and structural equality
is a sound and complete equality test.  There is no division: a
quotient is built with the constructor, and sums, differences, products
and negations of fractions over the base stay over the base.  The
denominator is expanded only to print or export a value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import Mapping, Sequence

from .exact_linalg import as_rational, rational_str

__all__ = [
    "MultiPoly",
    "RatFunc",
    "poly_divexact",
    "ratfunc_tree",
]


def _grlex_key(exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exponents), exponents)


class MultiPoly:
    """Dense-exponent multivariate polynomial: integer coefficients
    ``terms`` over one positive denominator ``den``."""

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
        """Trusted constructor for terms built by the kernel itself: exponent
        vectors and int coefficients over a positive ``den`` are taken as
        valid; zero coefficients are dropped and the pair is brought to
        canonical form."""
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

    # -- basic structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def leading(self) -> tuple[tuple[int, ...], int]:
        """The leading exponent vector and its coefficient in ``terms``,
        an int over ``den``."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

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
        if not self.terms:
            return "0"
        den = self.den
        parts: list[str] = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                name if p == 1 else f"{name}^{p}"
                for name, p in zip(self.vars, e)
                if p > 0
            )
            if not mono:
                piece = rational_str(c, den)
            elif c == den:
                piece = mono
            elif c == -den:
                piece = f"-{mono}"
            else:
                piece = f"{rational_str(c, den)}*{mono}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def poly_divexact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient f / g; raises ValueError when g does not divide f.

    Repeated leading-term elimination under graded-lex order, on
    integers: the integer polynomial F = f.den·f is divided by the
    primitive part G of g.den·g, and the content of g.den·g is folded
    into the quotient's denominator.  For a true factorization the
    leading term of the remainder is always divisible by the leading
    term of G, and by Gauss's lemma the quotient F / G has integer
    coefficients, so a quotient step whose exponents go negative or
    whose coefficient is not an integer proves non-divisibility.
    """
    f._require_same_vars(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    content = math.gcd(*g.terms.values())
    divisor = [(e, c // content) for e, c in g.terms.items()]
    g_exps, g_coeff = g.leading()
    g_coeff //= content
    quotient: dict[tuple[int, ...], int] = {}
    rem = dict(f.terms)
    while rem:
        r_exps = max(rem, key=_grlex_key)
        diff = tuple(map(sub, r_exps, g_exps))
        c, r = divmod(rem[r_exps], g_coeff)
        if r or min(diff) < 0:
            raise ValueError("polynomials do not divide exactly")
        quotient[diff] = c
        for e, gc in divisor:
            e = tuple(map(add, e, diff))
            left = rem.get(e, 0) - c * gc
            if left:
                rem[e] = left
            else:
                del rem[e]
    # f / g = (F / G) · g.den / (f.den · content)
    return MultiPoly._make(
        f.vars, {e: c * g.den for e, c in quotient.items()}, f.den * content
    )


# -- rational functions over a factor base -------------------------------


class _FactorBase(tuple):
    """A factor base that ``_checked_base`` accepted; the ``RatFunc``
    constructor takes it as it stands."""

    __slots__ = ()


def _checked_base(base: Sequence[MultiPoly]) -> _FactorBase:
    """The base as a tuple, once every factor has the form RatFunc needs."""
    base = tuple(base)
    if not base:
        raise ValueError("the factor base is empty")
    for f in base:
        f._require_same_vars(base[0])
        if (
            f.is_constant()
            or f.leading()[1] < 0
            or f.den != 1
            or math.gcd(*f.terms.values()) != 1
        ):
            raise ValueError(
                f"base factor {f} is not a non-constant primitive integer "
                "polynomial with a positive leading coefficient"
            )
    return _FactorBase(base)


def _cancel(
    num: MultiPoly,
    base: tuple[MultiPoly, ...],
    exps: tuple[int, ...],
    trial: Sequence[int],
) -> tuple[MultiPoly, tuple[int, ...]]:
    """Cancel base[i] for each i in trial between num and the power exps[i]."""
    left = list(exps)
    for i in trial:
        while left[i]:
            try:
                num = poly_divexact(num, base[i])
            except ValueError:
                break
            left[i] -= 1
    return num, tuple(left)


def _expand(base: tuple[MultiPoly, ...], exps: tuple[int, ...]) -> MultiPoly:
    """The polynomial prod(base[i] ** exps[i])."""
    out = MultiPoly.constant(base[0].vars, 1)
    for f, e in zip(base, exps):
        if e:
            out = out * f**e
    return out


class RatFunc:
    """Reduced fraction ``num / prod(base[i] ** exps[i])``.

    The caller promises that the factors of ``base`` are irreducible over
    Q and pairwise non-associate; the constructor rejects a factor that is
    constant, not primitive with integer coefficients, or has a negative
    leading coefficient, and reduces ``num`` against the denominator.  It
    checks a base once: the ``base`` of a built value is taken as it
    stands, so values built over it skip the check.
    Operands of one operation must share the base.  The expanded
    denominator is built on first use and kept.
    """

    __slots__ = ("num", "base", "exps", "_den")

    def __init__(
        self,
        num: MultiPoly,
        base: Sequence[MultiPoly],
        exps: Sequence[int] | None = None,
    ):
        if type(base) is not _FactorBase:
            base = _checked_base(base)
        num._require_same_vars(base[0])
        exps = (0,) * len(base) if exps is None else tuple(exps)
        if len(exps) != len(base) or any(type(e) is not int or e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps} for {len(base)} factors")
        # every factor divides zero, so a zero numerator keeps no exponent
        self.num, self.exps = _cancel(num, base, exps, range(len(base)))
        self.base = base
        self._den = None

    @classmethod
    def _make(
        cls, num: MultiPoly, base: tuple[MultiPoly, ...], exps: tuple[int, ...]
    ) -> "RatFunc":
        """Trusted constructor: the base is checked and no base[i] with
        exps[i] > 0 divides num."""
        obj = object.__new__(cls)
        obj.num = num
        obj.base = base
        obj.exps = exps if num.terms else (0,) * len(base)
        obj._den = None
        return obj

    def _renamed(self, variables: Sequence[int]) -> "RatFunc":
        """Trusted image under a renaming of the variables: variable q of
        the result is variable ``variables[q]`` of ``self``, and the caller
        promises that the renaming fixes every base factor.  It is then a
        field automorphism that fixes the denominator, so the image is
        reduced without trial division and shares the expanded
        denominator."""
        num = MultiPoly._make(
            self.num.vars,
            {tuple(e[p] for p in variables): c for e, c in self.num.terms.items()},
            self.num.den,
        )
        out = RatFunc._make(num, self.base, self.exps)
        out._den = self.den
        return out

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @property
    def den(self) -> MultiPoly:
        """The expanded denominator, which ``str`` and ``ratfunc_tree`` share."""
        if self._den is None:
            self._den = _expand(self.base, self.exps)
        return self._den

    def _require_same_base(self, other: "RatFunc") -> None:
        if self.base != other.base:
            raise ValueError("rational functions over different factor bases")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.exps == other.exps
            and self.num == other.num
            and self.base == other.base
        )

    __hash__ = None

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        self._require_same_base(other)
        base, e1, e2 = self.base, self.exps, other.exps
        if e1 == e2:
            exps, num = e1, self.num + other.num
        else:
            exps = tuple(map(max, e1, e2))
            num = (
                self.num * _expand(base, tuple(x - y for x, y in zip(exps, e1)))
                + other.num * _expand(base, tuple(x - y for x, y in zip(exps, e2)))
            )
        # a factor whose powers differ divides exactly one lifted term
        trial = [i for i, (x, y) in enumerate(zip(e1, e2)) if x == y]
        num, exps = _cancel(num, base, exps, trial)
        return RatFunc._make(num, base, exps)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return RatFunc._make(-self.num, self.base, self.exps)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._require_same_base(other)
        base = self.base
        # each numerator can only share a factor with the other denominator
        n1, e2 = _cancel(
            self.num, base, other.exps, [i for i, x in enumerate(self.exps) if not x]
        )
        n2, e1 = _cancel(
            other.num, base, self.exps, [i for i, x in enumerate(other.exps) if not x]
        )
        return RatFunc._make(n1 * n2, base, tuple(map(add, e1, e2)))

    def eval(self, values: Mapping[str, int | str | Fraction]) -> Fraction:
        den_val = math.prod(
            f.eval(values) ** e for f, e in zip(self.base, self.exps) if e
        )
        if den_val == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.num.eval(values) / den_val

    def __str__(self) -> str:
        if not any(self.exps):
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
            {"op": "term", "coefficient": rational_str(p.terms[e], p.den), "powers": powers}
        )
    return {"op": "sum", "terms": terms}


def ratfunc_tree(f: RatFunc) -> dict:
    return {
        "op": "div",
        "numerator": poly_tree(f.num),
        "denominator": poly_tree(f.den),
    }
