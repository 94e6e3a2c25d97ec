"""System specification, spectral validation, and random instance generation.

A system is an n x n interaction matrix A together with K diagonal
transport matrices (stored as their diagonals).  Admissible systems have
a simple zero eigenvalue of A — one-dimensional right and left kernels,
with the zero root of the characteristic polynomial simple — and all
remaining eigenvalues in the open left half-plane.  The right/left null
vectors are normalized so that the first nonzero entry of h1 is 1 and
(h1, h1_star) = 1.

Two generator families are provided.  ``markov_generator`` draws matrices
with positive off-diagonal entries and zero column sums, which satisfy the
admissibility conditions by construction (irreducible generator: simple
zero eigenvalue, Hurwitz remainder, strictly positive null vectors).
``similarity_transformed`` conjugates such a matrix by a random invertible
integer matrix T (T⁻¹ from one exact solve of T X = I), producing the
same exact spectrum without the sign structure.
Generation is fully deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import (
    InconsistentSystem,
    RationalMatrix,
    Vector,
    charpoly_exact,
    dot,
    hurwitz_stable,
    nullspace,
    rank_exact,
    solve_particular,
)

MARKOV_FAMILY = "markov_generator"
SIMILARITY_FAMILY = "similarity_transformed"
FAMILIES = (MARKOV_FAMILY, SIMILARITY_FAMILY)

_MAX_GENERATION_ATTEMPTS = 200

#: Largest absolute numerator and denominator of a generated entry.
_ENTRY_BOUND = 6

__all__ = [
    "FAMILIES",
    "MARKOV_FAMILY",
    "SIMILARITY_FAMILY",
    "GenerationFailed",
    "GeneratorConfig",
    "KernelDimensionError",
    "NonNormalizable",
    "NotStable",
    "SpectralData",
    "SystemSpec",
    "generate_instance",
    "null_pair_normalized",
    "validate_system",
]


class KernelDimensionError(ValueError):
    """The zero eigenvalue is absent or not simple."""


class NotStable(ValueError):
    """Some nonzero eigenvalue fails to lie in the open left half-plane."""


class NonNormalizable(ValueError):
    """The right/left null vectors are orthogonal, so no unit pairing exists."""


class GenerationFailed(RuntimeError):
    """Bounded resampling could not produce an admissible instance."""


@dataclass(frozen=True)
class SystemSpec:
    """An interaction matrix with K diagonal transport directions.

    ``D`` holds the diagonals, one length-n vector per direction.
    """

    n: int
    K: int
    D: tuple[Vector, ...]
    A: RationalMatrix
    label: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.K < 1:
            raise ValueError(f"K must be at least 1, got {self.K}")
        if self.A.rows != self.n or self.A.cols != self.n:
            raise ValueError(f"A must be {self.n}x{self.n}")
        if len(self.D) != self.K or any(len(d) != self.n for d in self.D):
            raise ValueError(f"D must hold {self.K} diagonals of length {self.n}")


@dataclass(frozen=True)
class SpectralData:
    """Normalized null pair of A plus the stability verdict."""

    h1: Vector
    h1_star: Vector
    stable: bool


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    K: int
    seed: int
    family: str = MARKOV_FAMILY

    def __post_init__(self):
        if self.n < 2 or self.K < 2:
            raise ValueError("generator needs n >= 2 and K >= 2")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")


def null_pair_normalized(a: RationalMatrix) -> tuple[Vector, Vector]:
    """Right/left null vectors with first-nonzero(h1) = 1 and (h1, h1_star) = 1.

    Requires one-dimensional kernels on both sides; raises
    ``NonNormalizable`` when the vectors are orthogonal (defective zero
    eigenvalue), in which case no such scaling exists.
    """
    right = nullspace(a)
    if len(right) != 1:
        raise KernelDimensionError(
            f"right kernel dimension is {len(right)}, need exactly 1"
        )
    left = nullspace(a.transpose())
    if len(left) != 1:
        raise KernelDimensionError(
            f"left kernel dimension is {len(left)}, need exactly 1"
        )
    h1 = right[0]
    pairing = dot(h1, left[0])
    if pairing == 0:
        raise NonNormalizable("right and left null vectors are orthogonal")
    h1_star = tuple(x / pairing for x in left[0])
    return h1, h1_star


def _check_spectrum(a: RationalMatrix) -> None:
    """Raise unless A has a simple zero eigenvalue and a Hurwitz remainder.

    A simple zero root makes both kernels one-dimensional and the null
    vectors non-orthogonal, so ``null_pair_normalized`` cannot raise once
    this check has passed.
    """
    coeffs = charpoly_exact(a)
    if coeffs[0] != 0:
        raise KernelDimensionError("zero is not an eigenvalue")
    if coeffs[1] == 0:
        raise KernelDimensionError("zero eigenvalue is not simple")
    if not hurwitz_stable(coeffs[1:]):  # the deflated polynomial
        raise NotStable("nonzero spectrum is not contained in the open left half-plane")


def validate_system(s: SystemSpec) -> SpectralData:
    """Check admissibility of A and return the normalized null pair.

    Raises ``KernelDimensionError`` when the zero eigenvalue is missing,
    repeated, or defective (λ² dividing the characteristic polynomial),
    and ``NotStable`` when the deflated polynomial is not Hurwitz.
    """
    _check_spectrum(s.A)
    h1, h1_star = null_pair_normalized(s.A)
    return SpectralData(h1=h1, h1_star=h1_star, stable=True)


def _positive_fraction(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


def _signed_fraction(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _markov_generator(rng: random.Random, n: int, bound: int) -> RationalMatrix:
    """Matrix with positive off-diagonal entries and zero column sums,
    drawn column by column."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            if i != j:
                rows[i][j] = _positive_fraction(rng, bound)
        rows[j][j] = -sum(rows[i][j] for i in range(n))
    return RationalMatrix(rows)


def _random_similar(rng: random.Random, base: RationalMatrix, bound: int) -> RationalMatrix:
    """T B T⁻¹ for a random integer T, redrawn while singular.

    T⁻¹ is the solution of T X = I, which raises ``InconsistentSystem``
    exactly when T is singular; the products run on integer rows.
    """
    n = base.rows
    for _ in range(_MAX_GENERATION_ATTEMPTS):
        t = RationalMatrix([rng.randint(-bound, bound) for _ in range(n)] for _ in range(n))
        try:
            return t @ base @ solve_particular(t, RationalMatrix.identity(n))
        except InconsistentSystem:
            continue
    raise GenerationFailed("could not sample an invertible transform")


def _sample_interaction(
    cfg: GeneratorConfig, rng: random.Random
) -> tuple[RationalMatrix, tuple[Vector, Vector]]:
    """One interaction matrix with its normalized null pair."""
    base = _markov_generator(rng, cfg.n, _ENTRY_BOUND)
    if cfg.family == MARKOV_FAMILY:
        return base, null_pair_normalized(base)
    for _ in range(_MAX_GENERATION_ATTEMPTS):
        # T entries in [-3, 3] keep conjugated denominators modest
        a = _random_similar(rng, base, 3)
        h1, h1_star = pair = null_pair_normalized(a)
        # Stay inside the rank law's evident hypothesis class: the
        # conjugation must not park a null vector on a coordinate plane.
        if all(x != 0 for x in h1) and all(x != 0 for x in h1_star):
            return a, pair
    raise GenerationFailed("similarity transform kept zeroing a null-vector entry")


def _sample_diagonals(cfg: GeneratorConfig, rng: random.Random) -> tuple[Vector, ...]:
    """K diagonals in general position for the rank law.

    Each diagonal has n distinct entries, the vectors are pairwise
    distinct, and the rows 1, D_1, ..., D_K have rank min(K, n - 1) + 1,
    so no generated instance is degenerate.  That affine rank is
    ``analyze_structure``'s degeneracy test read off the diagonals alone.
    Lemma: let H = diag(h1) have no zero entry, (h1, h1_star) = 1 and
    v_i = h1_starᵀ H D_i.  The functional x -> h1_starᵀ H x is 1 on the
    ones vector and 0 on every D_i - v_i 1, so
    span{1, D_i} = span{1} ⊕ span{D_i - v_i 1}, and H is invertible;
    hence rank{Psi_i h1} = rank{H (D_i - v_i 1)} = rank[1; D] - 1.  Both
    families meet the hypothesis (Markov h1 > 0; the similarity family
    redraws a zero entry), so the screen needs neither v nor h1.

    The screen matters: the rank law is a generic-rank statement, and a
    bounded rational grid lands on the lower-rank stratum with small but
    real probability — affinely dependent diagonals such as
    D_2 = a D_1 + b (1,...,1) cap rank M below the prediction without any
    single direction being degenerate.  It reads only the input data,
    never M, so a genuine rank anomaly on general-position data stays
    observable downstream.

    Entries are rejection-sampled one diagonal at a time, so the retry
    budget bounds the failure odds per vector instead of compounding
    across all K (a whole-batch restart makes n = K = 8 genuinely flaky).
    """
    ones = (Fraction(1),) * cfg.n
    diagonals: list[Vector] = []
    for _ in range(cfg.K):
        for _ in range(_MAX_GENERATION_ATTEMPTS):
            d = tuple(_signed_fraction(rng, _ENTRY_BOUND) for _ in range(cfg.n))
            if len(set(d)) != cfg.n or any(d == prev for prev in diagonals):
                continue
            if len(diagonals) < cfg.n - 1:
                rows = [ones, *diagonals, d]
                if rank_exact(RationalMatrix(rows)) < len(rows):
                    continue  # affinely dependent: lower-rank stratum
            diagonals.append(d)
            break
        else:
            raise GenerationFailed("could not sample admissible transport diagonals")
    return tuple(diagonals)


def generate_instance(cfg: GeneratorConfig) -> tuple[SystemSpec, SpectralData]:
    """Deterministically generate an admissible random instance.

    Returns the instance with the spectral data of its validation.  The
    same config always returns the identical instance; all rejection
    loops draw from the one seeded stream and are attempt-bounded.
    """
    rng = random.Random(cfg.seed)
    a, (h1, h1_star) = _sample_interaction(cfg, rng)
    _check_spectrum(a)
    data = SpectralData(h1=h1, h1_star=h1_star, stable=True)
    diagonals = _sample_diagonals(cfg, rng)
    label = f"{cfg.family}-n{cfg.n}-K{cfg.K}-seed{cfg.seed}"
    return SystemSpec(n=cfg.n, K=cfg.K, D=diagonals, A=a, label=label), data
