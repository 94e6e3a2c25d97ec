"""Tests for the exact multivariate polynomial / rational function kernel."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbrank.multipoly import (
    MultiPoly,
    RatFunc,
    ZeroDenominator,
    poly_divexact,
    poly_gcd,
    poly_tree,
    ratfunc_tree,
)

VARS = ("a", "b", "k")


def P(terms):
    return MultiPoly(VARS, terms)


def var(name):
    return MultiPoly.variable(VARS, name)


def ratfunc_normalize(f):
    """Re-run canonical reduction; idempotent on already-reduced values."""
    return RatFunc(f.num, f.den)


A, B, K = var("a"), var("b"), var("k")
ONE = MultiPoly.constant(VARS, 1)


def random_poly(rng, max_terms=3, max_exp=2, bound=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in VARS)
        coeff = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return P(terms)


# six variables: a, b shared by both sides of a gcd, x1, x2 private to the
# first side and y1, y2 private to the second
WIDE = ("a", "b", "x1", "x2", "y1", "y2")


def wide_poly(rng, names, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) if v in names else 0 for v in WIDE)
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return MultiPoly(WIDE, terms)


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

    def test_degrees(self):
        p = P({(2, 0, 1): 1, (0, 3, 0): Fraction(-1, 2)})
        assert p.degrees() == (2, 3, 1)
        assert p.degrees() == tuple(p.degree_in(i) for i in range(3))
        assert MultiPoly.zero(VARS).degrees() == (0, 0, 0)

    def test_ring_ops(self):
        p = A + B
        q = A - B
        assert p * q == A * A - B * B
        assert (p + q) == A.scale(2)
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

    def test_content_and_primitive(self):
        p = P({(1, 0, 0): Fraction(4, 3), (0, 1, 0): Fraction(-2, 9)})
        assert p.content() == Fraction(2, 9)
        prim = p.primitive()
        assert prim == P({(1, 0, 0): 6, (0, 1, 0): -1})
        # negative leading coefficient flips the sign
        n = P({(1, 0, 0): -2, (0, 0, 0): 4})
        assert n.primitive() == P({(1, 0, 0): 1, (0, 0, 0): -2})
        assert MultiPoly.zero(VARS).primitive().is_zero()

    def test_eval(self):
        p = A * A - B * K
        assert p.eval({"a": 3, "b": 2, "k": 4}) == 1
        assert p.eval({"a": Fraction(1, 2), "b": 1, "k": Fraction(1, 4)}) == 0

    def test_str(self):
        p = P({(2, 0, 0): 3, (0, 1, 1): -1, (0, 0, 0): Fraction(1, 2)})
        assert str(p) == "3*a^2 - b*k + 1/2"
        assert str(MultiPoly.zero(VARS)) == "0"
        assert str(ONE) == "1"


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
            poly_divexact(A, MultiPoly.zero(VARS))


class TestGcd:
    def test_difference_of_squares(self):
        g = poly_gcd(A * A - B * B, A * A - A * B)
        assert g == A - B

    def test_common_cubic_factor(self):
        s = A + B * K
        f = A * B * s
        g = s ** 3
        assert poly_gcd(f, g) == s

    def test_coprime_gives_one(self):
        assert poly_gcd(A + ONE, B + ONE) == ONE
        assert poly_gcd(A, B) == ONE

    def test_zero_cases(self):
        z = MultiPoly.zero(VARS)
        assert poly_gcd(z, z).is_zero()
        assert poly_gcd(z, A.scale(-3)) == A
        assert poly_gcd(A.scale(Fraction(2, 7)), z) == A

    def test_constants_are_units(self):
        assert poly_gcd(MultiPoly.constant(VARS, 6), MultiPoly.constant(VARS, 4)) == ONE

    def test_gcd_normalized(self):
        # result has integer coprime coefficients with positive leading coeff
        g = poly_gcd((A - B).scale(Fraction(-3, 2)), (A - B) * (A + B))
        assert g == A - B

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
    )
    def test_common_factor_recovered(self, s1, s2, s3):
        f = random_poly(random.Random(s1), max_terms=2, max_exp=1)
        g = random_poly(random.Random(s2), max_terms=2, max_exp=1)
        h = random_poly(random.Random(s3), max_terms=2, max_exp=1)
        if h.is_zero() or f.is_zero() or g.is_zero():
            return
        d = poly_gcd(f * h, g * h)
        assert d == (poly_gcd(f, g) * h).primitive()

    def test_gcd_divides_both(self):
        rng = random.Random(123)
        for _ in range(30):
            f = random_poly(rng)
            g = random_poly(rng)
            if f.is_zero() or g.is_zero():
                continue
            d = poly_gcd(f, g)
            poly_divexact(f, d)
            poly_divexact(g, d)  # would raise if not a divisor


class TestSharedVariableGcd:
    """Both sides carry variables the other lacks; the common factor lives
    in the shared ones."""

    def test_common_factor_recovered(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 40:
            f = wide_poly(rng, ("a", "b", "x1", "x2"))
            g = wide_poly(rng, ("a", "b", "y1", "y2"))
            h = wide_poly(rng, ("a", "b"))
            deg_f, deg_g = f.degrees(), g.degrees()
            if h.is_constant() or not any(deg_f[2:4]) or not any(deg_g[4:6]):
                continue
            d = poly_gcd(f * h, g * h)
            assert d == (poly_gcd(f, g) * h).primitive()
            poly_divexact(f * h, d)
            poly_divexact(g * h, d)  # would raise if not a divisor
            checked += 1

    def test_private_content_takes_every_coefficient(self):
        a, b, x1, x2, y1, y2 = (MultiPoly.variable(WIDE, n) for n in WIDE)
        s = a + b
        f = s * (a * x1 + b * x2)
        g = s * y1 + b * y2  # coefficients s and b: content 1, not s
        one = MultiPoly.constant(WIDE, 1)
        assert poly_gcd(f, g) == one
        assert poly_gcd(g, f) == one
        assert poly_gcd(f * s, g * s) == s

    def test_sum_over_fourth_power_reduces(self):
        names = ("a", "b", "k", "d1_1", "d1_2", "d2_1", "d2_2")
        a, b, k, d11, d12, d21, d22 = (MultiPoly.variable(names, n) for n in names)
        s = a + b * k
        top = (d11 - d12) * (d21 - d22) + d11 * d22.scale(3)
        total = RatFunc(top * b * k, s**4) + RatFunc(top * a, s**4)
        assert total.num == top
        assert total.den == s**3
        assert poly_gcd(top * s, s**4) == s


class TestRatFunc:
    def test_difference_of_squares_cancels(self):
        f = RatFunc(A * A - B * B, A - B)
        assert f == RatFunc(A + B)
        assert f.den == ONE

    def test_commuted_product_is_one(self):
        f = RatFunc(A * B, B * A)
        assert f == RatFunc.constant(VARS, 1)

    def test_shared_cubic_factor(self):
        s = A + B * K
        f = RatFunc(A * B * s, s ** 3)
        assert f.num == A * B
        assert f.den == s * s

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RatFunc(A, MultiPoly.zero(VARS))

    def test_zero_numerator_canonical(self):
        f = RatFunc(MultiPoly.zero(VARS), (A + B) ** 2)
        assert f.is_zero()
        assert f.den == ONE

    def test_denominator_sign_and_content(self):
        f = RatFunc(A, (B - A).scale(Fraction(-2, 3)))
        # denominator becomes primitive-integer with positive leading coeff
        assert f.den == A - B
        assert f.num == A.scale(Fraction(3, 2))

    def test_field_identities_exact(self):
        rng = random.Random(11)
        built = 0
        while built < 25:
            fn, fd = random_poly(rng), random_poly(rng)
            gn, gd = random_poly(rng), random_poly(rng)
            if fd.is_zero() or gd.is_zero() or gn.is_zero():
                continue
            f = RatFunc(fn, fd)
            g = RatFunc(gn, gd)
            assert (f + g) - g == f
            assert (f * g) / g == f
            assert f - f == RatFunc.constant(VARS, 0)
            built += 1

    def test_canonical_form_matches_evaluation(self):
        rng = random.Random(42)
        checked = 0
        while checked < 50:
            fn, fd = random_poly(rng), random_poly(rng)
            if fd.is_zero():
                continue
            f = RatFunc(fn, fd)
            point = random_point(rng)
            if fd.eval(point) == 0:
                continue
            assert f.eval(point) == fn.eval(point) / fd.eval(point)
            checked += 1

    def test_pow_and_division(self):
        f = RatFunc(A, B)
        assert f ** 2 == RatFunc(A * A, B * B)
        assert f ** -1 == RatFunc(B, A)
        assert f ** 0 == RatFunc.constant(VARS, 1)
        with pytest.raises(ZeroDenominator):
            f / RatFunc.constant(VARS, 0)
        with pytest.raises(ZeroDenominator):
            RatFunc.constant(VARS, 0) ** -1  # noqa: B018

    def test_eval_pole(self):
        f = RatFunc(ONE, A - B)
        with pytest.raises(ZeroDivisionError):
            f.eval({"a": 1, "b": 1, "k": 0})

    def test_normalize_idempotent(self):
        f = RatFunc(A * A - B * B, (A - B).scale(2))
        again = ratfunc_normalize(f)
        assert again == f
        assert again.num == f.num and again.den == f.den

    def test_str(self):
        assert str(RatFunc(A + B)) == "a + b"
        assert str(RatFunc(A, B)) == "(a)/(b)"


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
        f = RatFunc(A, B)
        tree = ratfunc_tree(f)
        assert tree["op"] == "div"
        assert tree["numerator"] == {
            "op": "sum",
            "terms": [{"op": "term", "coefficient": "1", "powers": {"a": 1}}],
        }
        assert tree["denominator"]["terms"][0]["powers"] == {"b": 1}
