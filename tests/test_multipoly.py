"""Tests for the exact multivariate polynomial / rational function kernel."""

import random
from fractions import Fraction
from math import gcd

import pytest

from perturbrank.multipoly import (
    MultiPoly,
    RatFunc,
    poly_divexact,
    poly_tree,
    ratfunc_tree,
)

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
# irreducible, pairwise non-associate, primitive, positive leading terms
BASE = (A, B, K, A + B * K, A - B)


def over(num, *factors):
    """num divided by the product of the given factors of BASE."""
    exps = [0] * len(BASE)
    for f in factors:
        exps[BASE.index(f)] += 1
    return RatFunc(num, BASE, exps)


def power_product(exps):
    out = ONE
    for f, e in zip(BASE, exps):
        out = out * f**e
    return out


def random_exps(rng):
    return tuple(rng.randint(0, 2) for _ in BASE)


def random_poly(rng, max_terms=3, max_exp=2, bound=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in VARS)
        coeff = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return P(terms)


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
        # b^2 beats a*k at equal total degree? grlex ties break lexicographically
        # on the exponent vector: (1,0,1) > (0,2,0).
        p = P({(1, 0, 1): 1, (0, 2, 0): 5})
        assert p.leading() == ((1, 0, 1), Fraction(1))
        # higher total degree wins regardless of coefficients
        q = P({(0, 0, 3): 1, (2, 0, 0): 99})
        assert q.leading()[0] == (0, 0, 3)

    def test_eval(self):
        p = A * A - B * K
        assert p.eval({"a": 3, "b": 2, "k": 4}) == 1
        assert p.eval({"a": Fraction(1, 2), "b": 1, "k": Fraction(1, 4)}) == 0

    def test_str(self):
        p = P({(2, 0, 0): 3, (0, 1, 1): -1, (0, 0, 0): Fraction(1, 2)})
        assert str(p) == "3*a^2 - b*k + 1/2"
        assert str(ZERO) == "0"
        assert str(ONE) == "1"


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
            if not g.is_zero():
                assert_canonical(poly_divexact(f * g, g))

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

    def test_divexact_by_non_primitive_divisor(self):
        two_a_two_b = const(2) * A + const(2) * B
        f = const(Fraction(1, 3)) * (A * A - B * B)
        assert poly_divexact(f, two_a_two_b) == const(Fraction(1, 6)) * (A - B)
        third = const(Fraction(2, 3)) * (A + B)
        assert poly_divexact(f, third) == const(Fraction(1, 2)) * (A - B)
        assert poly_divexact(two_a_two_b, two_a_two_b) == ONE
        with pytest.raises(ValueError):
            poly_divexact(A * A + ONE, two_a_two_b)
        # a quotient step with a non-integer coefficient: a + 1 by 2a + 1
        with pytest.raises(ValueError):
            poly_divexact(A + ONE, const(2) * A + ONE)
        assert poly_divexact(A + const(Fraction(1, 2)), const(2) * A + ONE) == const(
            Fraction(1, 2)
        )


class TestDivision:
    def test_divexact_roundtrip(self):
        rng = random.Random(7)
        for _ in range(40):
            f = random_poly(rng)
            g = random_poly(rng)
            if g.is_zero():
                continue
            assert poly_divexact(f * g, g) == f

    def test_divexact_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            poly_divexact(A * A + ONE, A + B)

    def test_divexact_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divexact(A, ZERO)


class TestRatFunc:
    def test_difference_of_squares_cancels(self):
        f = over(A * A - B * B, A - B)
        assert f == RatFunc(A + B, BASE)
        assert f.den == ONE

    def test_commuted_product_is_one(self):
        assert over(A * B, B, A) == RatFunc(ONE, BASE)

    def test_shared_cubic_factor(self):
        s = A + B * K
        f = over(A * B * s, s, s, s)
        assert f.num == A * B
        assert f.den == s * s

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            RatFunc(A, (ZERO,))

    def test_zero_numerator_canonical(self):
        f = over(ZERO, A - B, A - B)
        assert f.is_zero()
        assert f.exps == (0,) * len(BASE)
        assert f.den == ONE

    def test_denominator_sign_and_content(self):
        # a base factor must be primitive-integer with a positive leading
        # coefficient, so the expanded denominator is too
        for bad in (
            B - A,
            const(2) * (A - B),
            const(Fraction(1, 2)) * (A - B),
            MultiPoly.constant(VARS, 3),
        ):
            with pytest.raises(ValueError):
                RatFunc(A, (A, bad))
        f = over(const(Fraction(3, 2)) * A, A - B)
        assert f.den == A - B
        assert f.num == const(Fraction(3, 2)) * A

    def test_bad_base_or_exponents_rejected(self):
        with pytest.raises(ValueError):
            RatFunc(A, ())
        with pytest.raises(ValueError):
            RatFunc(A, (MultiPoly.variable(("x", "y"), "x"),))
        for bad in ((1,), (1, 2, 3), (-1, 0), (1.0, 0)):
            with pytest.raises(ValueError):
                RatFunc(A, (A, B), bad)

    def test_field_identities_exact(self):
        rng = random.Random(11)
        built = 0
        while built < 25:
            f, g, h = (
                RatFunc(random_poly(rng), BASE, random_exps(rng)) for _ in range(3)
            )
            assert f + g == g + f
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert f - f == RatFunc(ZERO, BASE)
            built += 1

    def test_canonical_form_matches_evaluation(self):
        rng = random.Random(42)
        checked = 0
        while checked < 50:
            num = random_poly(rng)
            extra, exps = random_exps(rng), random_exps(rng)
            f = RatFunc(num * power_product(extra), BASE, exps)
            for factor, e in zip(BASE, f.exps):
                if e:
                    with pytest.raises(ValueError):
                        poly_divexact(f.num, factor)
            point = random_point(rng)
            den = power_product(exps).eval(point)
            if den != 0:
                assert f.eval(point) == (num * power_product(extra)).eval(point) / den
            # g is a constant times base powers over base powers, so its
            # reciprocal is one too
            unit = Fraction(rng.choice([-3, -1, Fraction(2, 5), 7]))
            up, down = random_exps(rng), random_exps(rng)
            g = RatFunc(const(unit) * power_product(up), BASE, down)
            g_inv = RatFunc(const(1 / unit) * power_product(down), BASE, up)
            h = RatFunc(random_poly(rng), BASE, random_exps(rng))
            assert (f + h) - h == f
            assert (f * g) * g_inv == f
            checked += 1

    def test_operands_share_the_base(self):
        with pytest.raises(ValueError):
            over(A, B) + RatFunc(A, (A, B))

    def test_product_and_reciprocal(self):
        f = over(A, B)
        one = RatFunc(ONE, BASE)
        assert f * f == over(A * A, B, B)
        assert f * over(B, A) == one
        # over(2a, k) has the reciprocal over(k / 2, a)
        assert over(const(4) * A, B) * over(const(Fraction(1, 2)) * K, A) == over(
            const(2) * K, B
        )

    def test_eval_pole(self):
        f = over(ONE, A - B)
        with pytest.raises(ZeroDivisionError):
            f.eval({"a": 1, "b": 1, "k": 0})

    def test_normalize_idempotent(self):
        f = over(A * A - B * B, A - B, A - B, B)
        again = RatFunc(f.num, f.base, f.exps)
        assert again == f
        assert again.num == f.num and again.exps == f.exps

    def test_renamed_is_the_canonical_image(self):
        # swapping a and b fixes both factors a + b and k, so the image
        # keeps the exponents and the expanded denominator
        base = (A + B, K)
        f = RatFunc(A * A * B + K, base, (2, 1))
        image = f._renamed((1, 0, 2))
        assert image == RatFunc(A * B * B + K, base, (2, 1))
        assert image.den is f.den

    def test_str(self):
        assert str(RatFunc(A + B, BASE)) == "a + b"
        assert str(over(A, B)) == "(a)/(b)"
        assert str(over(ONE, B, B)) == "(1)/(b^2)"


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
        f = over(A, B)
        tree = ratfunc_tree(f)
        assert tree["op"] == "div"
        assert tree["numerator"] == {
            "op": "sum",
            "terms": [{"op": "term", "coefficient": "1", "powers": {"a": 1}}],
        }
        assert tree["denominator"]["terms"][0]["powers"] == {"b": 1}
