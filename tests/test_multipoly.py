"""Tests for the exact multivariate polynomial kernel and its Laurent values."""

import random
from fractions import Fraction
from math import gcd

import pytest

from perturbrank.multipoly import MultiPoly, poly_tree
from perturbrank.symbolic import _Fractions

VARS = ("a", "b", "k")


def P(terms):
    return MultiPoly(VARS, terms)


def var(name):
    return MultiPoly.variable(VARS, name)


def const(value):
    return MultiPoly.constant(VARS, value)


A, B, K = var("a"), var("b"), var("k")
ONE = MultiPoly.constant(VARS, 1)
ZERO = MultiPoly(VARS)


def random_poly(rng, max_terms=3, max_exp=2, bound=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in VARS)
        coeff = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return P(terms)


def monomial(*exps):
    """The Laurent monomial a^exps[0] b^exps[1] k^exps[2]."""
    return MultiPoly._make(VARS, {tuple(exps): 1})


def random_laurent(rng):
    """A random polynomial times a random monomial with exponents in -2..1."""
    return random_poly(rng) * monomial(*(rng.randint(-2, 1) for _ in VARS))


def random_point(rng):
    # avoid 0 so random denominators rarely vanish
    return {name: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for name in VARS}


class TestMultiPoly:
    def test_zero_coefficients_dropped(self):
        p = P({(1, 0, 0): 0, (0, 1, 0): 2})
        assert p.terms == {(0, 1, 0): Fraction(2)}

    def test_bad_exponent_vector(self):
        with pytest.raises(ValueError):
            P({(1, 0): 1})
        with pytest.raises(ValueError):
            P({(-1, 0, 0): 1})

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly(("a", "b"), {(1.5, 0): 1})
        for bad in (2.0, True, Fraction(1), "1"):
            with pytest.raises(ValueError):
                P({(bad, 0, 0): 1})

    def test_ring_ops(self):
        p = A + B
        q = A - B
        assert p * q == A * A - B * B
        assert (p + q) == const(2) * A
        assert -p == P({(1, 0, 0): -1, (0, 1, 0): -1})

    def test_variable_mismatch_rejected(self):
        other = MultiPoly.variable(("x", "y"), "x")
        with pytest.raises(ValueError):
            A + other  # noqa: B018

    def test_power(self):
        cube = (A + B) ** 3
        expected = P(
            {
                (3, 0, 0): 1,
                (2, 1, 0): 3,
                (1, 2, 0): 3,
                (0, 3, 0): 1,
            }
        )
        assert cube == expected
        assert (A + B) ** 0 == ONE
        with pytest.raises(ValueError):
            A ** -1  # noqa: B018

    def test_leading_term_is_graded_lex(self):
        # text and tree lead with the graded-lex largest term; ties in
        # total degree break lexicographically on the exponent vector:
        # (1,0,1) > (0,2,0)
        p = P({(1, 0, 1): 1, (0, 2, 0): 5})
        assert str(p) == "a*k + 5*b^2"
        assert poly_tree(p)["terms"][0]["powers"] == {"a": 1, "k": 1}
        # higher total degree wins regardless of coefficients
        q = P({(0, 0, 3): 1, (2, 0, 0): 99})
        assert str(q) == "k^3 + 99*a^2"

    def test_eval(self):
        p = A * A - B * K
        assert p.eval({"a": 3, "b": 2, "k": 4}) == 1
        assert p.eval({"a": Fraction(1, 2), "b": 1, "k": Fraction(1, 4)}) == 0

    def test_str(self):
        p = P({(2, 0, 0): 3, (0, 1, 1): -1, (0, 0, 0): Fraction(1, 2)})
        assert str(p) == "3*a^2 - b*k + 1/2"
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        # a leading -1 keeps its sign on the monomial, a leading negative
        # fraction on its coefficient, and a later -1 monomial is " - mono"
        assert str(P({(1, 1, 0): -1, (0, 0, 1): 2, (0, 0, 0): -3})) == "-a*b + 2*k - 3"
        p = P({(2, 0, 0): Fraction(-1, 2), (0, 1, 0): 1, (0, 0, 1): -1, (0, 0, 0): Fraction(3, 4)})
        assert str(p) == "-1/2*a^2 + b - k + 3/4"
        p = P({(2, 0, 0): 1, (1, 1, 0): -1, (0, 0, 2): Fraction(-2, 3)})
        assert str(p) == "a^2 - a*b - 2/3*k^2"


def assert_canonical(p):
    assert p.den > 0 and all(type(c) is int and c for c in p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1


class TestCanonicalForm:
    """Integer coefficients over one positive denominator, in lowest terms."""

    def test_results_are_canonical(self):
        rng = random.Random(2024)
        for _ in range(60):
            f, g, h = (random_poly(rng) for _ in range(3))
            for p in (f, f + g, f - g, -f, f * g, f * g - g * f, (f + h) ** 2):
                assert_canonical(p)
            assert (f - f).den == 1
            u = random_laurent(rng)
            for p in (u, u * f, u + g, u * u - f):
                assert_canonical(p)

    def test_equal_values_have_equal_fields(self):
        rng = random.Random(99)
        for _ in range(60):
            f, g, h = (random_poly(rng) for _ in range(3))
            for left, right in ((f * (g + h), f * g + f * h), ((f + g) - g, f)):
                assert left == right
                assert (left.terms, left.den) == (right.terms, right.den)
        half = const(Fraction(1, 2))
        assert (const(3) * half).terms == {(0, 0, 0): 3} and (const(3) * half).den == 2
        assert (half + half).den == 1 and (half + half) == ONE

    def test_str_matches_fraction_coefficients(self):
        p = P({(1, 0, 0): Fraction(6, 4), (0, 1, 0): Fraction(-2, 6), (0, 0, 1): 1, (0, 0, 0): -1})
        assert (p.terms, p.den) == ({(1, 0, 0): 9, (0, 1, 0): -2, (0, 0, 1): 6, (0, 0, 0): -6}, 6)
        assert str(p) == "3/2*a - 1/3*b + k - 1"
        assert [t["coefficient"] for t in poly_tree(p)["terms"]] == ["3/2", "-1/3", "1", "-1"]


class TestRatFunc:
    """Rational functions of the symbolic family are Laurent values: built
    through _make, they may carry negative exponents, and the ring
    operations and equality stay exact and need no division.  ``_fraction``
    writes one as a numerator over a monomial times a power of q."""

    def test_commuted_product_is_one(self):
        assert (A * B) * (monomial(0, -1, 0) * monomial(-1, 0, 0)) == ONE
        assert monomial(2, -1, 0) * monomial(-2, 1, 0) == ONE

    def test_field_identities_exact(self):
        rng = random.Random(11)
        for _ in range(25):
            f, g, h = (random_laurent(rng) for _ in range(3))
            assert f + g == g + f
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert (f + h) - h == f
            assert f - f == ZERO
            # a monomial is a unit
            e = tuple(rng.randint(-2, 2) for _ in VARS)
            assert f * monomial(*e) * monomial(*(-x for x in e)) == f

    def test_canonical_form_matches_evaluation(self):
        rng = random.Random(42)
        for _ in range(40):
            num = random_poly(rng)
            e = tuple(rng.randint(0, 2) for _ in VARS)
            f = num * monomial(*(-x for x in e))
            assert_canonical(f)
            point = random_point(rng)
            assert f.eval(point) == num.eval(point) / monomial(*e).eval(point)

    def test_product_and_reciprocal(self):
        f = A * monomial(0, -1, 0)  # a/b
        assert f * f == A * A * monomial(0, -2, 0)
        assert f * (B * monomial(-1, 0, 0)) == ONE
        # 4a/b times k/(2a) is 2k/b
        assert (const(4) * A * monomial(0, -1, 0)) * (
            const(Fraction(1, 2)) * K * monomial(-1, 0, 0)
        ) == const(2) * K * monomial(0, -1, 0)

    def test_eval_pole(self):
        with pytest.raises(ZeroDivisionError):
            (A + monomial(0, -1, 0)).eval({"a": 1, "b": 0, "k": 2})

    def test_bad_base_or_exponents_rejected(self):
        # only the trusted _make takes negative exponents
        with pytest.raises(ValueError):
            MultiPoly(VARS, {(0, -1, 0): 1})
        with pytest.raises(ValueError):
            MultiPoly.constant(VARS, 1) ** -1

    def test_operands_share_the_base(self):
        other = MultiPoly._make(("a", "b"), {(1, -1): 1})
        with pytest.raises(ValueError):
            A * monomial(0, -1, 0) + other  # noqa: B018
        with pytest.raises(ValueError):
            A * monomial(0, -1, 0) * other  # noqa: B018

    def test_renamed_is_the_canonical_image(self):
        # swapping a and b permutes exponent positions, negative ones too
        f = (const(Fraction(3, 2)) * A * A * B + K) * monomial(0, -1, -2)
        image = f._renamed((1, 0, 2))
        assert image == (const(Fraction(3, 2)) * B * B * A + K) * monomial(-1, 0, -2)
        assert (image.terms, image.den) == (
            {(0, 2, -2): 3, (-1, 0, -1): 2},
            2,
        )

    def test_fraction_clears_and_substitutes(self):
        # k/(a b) + k over a b, with a replaced by q = b + k
        q = B + K
        f = K * monomial(-1, -1, 0) + const(Fraction(1, 3)) * K
        num, clear = f._fraction(lambda j: q**j)
        assert clear == (1, 1, 0)
        assert num == K + const(Fraction(1, 3)) * q * B * K
        # exponents that are not negative stay: b^2 k^-1 clears to b^2
        assert monomial(0, 2, -1)._fraction(lambda j: q**j) == (B * B, (0, 0, 1))

    def test_shared_cubic_factor(self):
        # a b k / a^3 is b k / a^2: the shared factor cancels structurally,
        # and the fraction clears a twice with a replaced by q = b + k
        q = B + K
        f = A * B * K * monomial(-3, 0, 0)
        assert f == B * K * monomial(-2, 0, 0)
        num, clear = f._fraction(lambda j: q**j)
        assert (num, clear) == (B * K, (2, 0, 0))

    def test_zero_numerator_canonical(self):
        q = B + K
        zero = A * monomial(0, -1, -2) - monomial(1, -1, -2)
        assert zero == ZERO and zero.is_zero()
        assert (zero.terms, zero.den) == ({}, 1)
        assert zero._fraction(lambda j: q**j) == (ZERO, (0, 0, 0))

    def test_denominator_sign_and_content(self):
        # the denominator b^i (a + b*k)^j of a converted value has integer,
        # positive coefficients with no common factor, and num/den is the
        # Laurent value at s = a + b*k
        names = ("s", "b", "k")
        family = ("a", "b", "k")
        writer = _Fractions(family)
        rng = random.Random(7)
        for _ in range(40):
            f = MultiPoly(names, random_poly(rng).terms) * MultiPoly._make(
                names, {tuple(rng.randint(-2, 1) for _ in names): 1}
            )
            num, (den, text, _) = writer.convert(f)
            assert den.den == 1 and all(c > 0 for c in den.terms.values())
            assert gcd(*den.terms.values()) == 1
            assert (text is None) == (den == MultiPoly.constant(family, 1))
            point = random_point(rng)
            at_s = {"s": point["a"] + point["b"] * point["k"], "b": point["b"], "k": point["k"]}
            assert num.eval(point) / den.eval(point) == f.eval(at_s)

    def test_str(self):
        f = A * monomial(0, -1, 0) - monomial(0, 0, -2)
        assert str(f) == "a*b^-1 - k^-2"
        assert str(A * B * monomial(0, -1, 0)) == "a"
        assert str(monomial(0, -2, 0)) == "b^-2"


class TestTrees:
    def test_poly_tree_shape(self):
        p = P({(2, 0, 0): 3, (0, 0, 0): Fraction(-1, 2)})
        assert poly_tree(p) == {
            "op": "sum",
            "terms": [
                {"op": "term", "coefficient": "3", "powers": {"a": 2}},
                {"op": "term", "coefficient": "-1/2", "powers": {}},
            ],
        }

    def test_ratfunc_tree_shape(self):
        f = A * monomial(0, -1, 0) - monomial(0, 0, -2)
        assert poly_tree(f) == {
            "op": "sum",
            "terms": [
                {"op": "term", "coefficient": "1", "powers": {"a": 1, "b": -1}},
                {"op": "term", "coefficient": "-1", "powers": {"k": -2}},
            ],
        }
