"""Helpers and fixed instances that several test modules share."""

import math
import random
from fractions import Fraction

from perturbrank.exact_linalg import RationalMatrix
from perturbrank.model import SystemSpec

W1 = SystemSpec(
    n=2,
    K=2,
    D=RationalMatrix([[1, 0], [0, 1]]),
    A=RationalMatrix([[-1, 1], [1, -1]]),
    label="w1",
)
TRIPLE_A = RationalMatrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])


def dot(u, v) -> Fraction:
    assert len(u) == len(v)
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _flat(m: RationalMatrix) -> tuple[Fraction, ...]:
    """The entries of a row or a column."""
    return tuple(m[i, j] for i in range(m.rows) for j in range(m.cols))


def extreme_float(rng: random.Random) -> float:
    """A float input for an error-contract draw: non-finite, at the ends of
    the float range, subnormal or zero, log-uniform in 1e-300..1e300 with
    either sign, or (half the time) ordinary."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice([math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-310, -1e-310, 0.0])
    if kind == 1:
        return rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-300.0, 300.0)
    return rng.uniform(0.05, 3.0)
