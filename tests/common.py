"""Helpers and fixed instances that several test modules share."""

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
