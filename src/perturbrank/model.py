"""System specification, spectral validation, and random instance generation.

A system is an n x n interaction matrix A together with K diagonal
transport matrices, stored as the K x n matrix D of their diagonals.
Admissible systems have a simple zero eigenvalue of A — one-dimensional
right and left kernels, with the zero root of the characteristic
polynomial simple — and all remaining eigenvalues in the open left
half-plane.  The right/left null vectors are normalized so that the
first nonzero entry of h1 is 1 and (h1, h1_star) = 1.  Like D, they are
held as integer rows: h1 and h1_star are 1 x n ``RationalMatrix`` rows,
and neither certification nor generation converts them to entries.

One function decides admissibility for files and the generator alike:
the Faddeev-LeVerrier pass that gives the exact charpoly of A also gives
adj(A).  With a simple zero root, rank A = n - 1 and adj(A) = α h1 h1_starᵀ
with tr adj(A) = ±c_1 != 0, so the first nonzero column and row of the
adjugate are the null pair and their pairing is nonzero.  One pass on
the integer rows (``RationalMatrix.null_pair``) checks A h1 = 0 and
h1_starᵀ A = 0 independently, as O(n²) integer dot products, and
normalizes the pair with one canonical form for each row.
The same pass gives the group inverse G of A (A G = G A = I - h1
h1_starᵀ, G h1 = 0, h1_starᵀ G = 0) from the two adjugate coefficients
it forms last, and the certificate keeps it.

Two generator families are provided.  ``markov_generator`` draws matrices
with positive off-diagonal entries and zero column sums, which satisfy the
admissibility conditions by construction (irreducible generator: simple
zero eigenvalue, Hurwitz remainder, strictly positive null vectors).
``similarity_transformed`` conjugates such a matrix by a random invertible
integer matrix T (T⁻¹ = adj(T) / det(T) from the charpoly pass of T),
producing the same exact spectrum without the sign structure.  Since
1ᵀ B = 0 for the Markov base B, the left null vector h1_star of T B T⁻¹
is a multiple of 1ᵀ T⁻¹, so of the column sums 1ᵀ adj(T) that the pass
already gives: a T with a zero column sum would give h1_star a zero
entry, and it is rejected before it is conjugated.  Entries are drawn
as integer numerators over lcm(1.._ENTRY_BOUND), scaled by one over that
scale once per matrix.  Every draw is ``Random.randint``'s, made a row
at a time through ``getrandbits`` exactly as ``randint`` makes it (a + r,
r = getrandbits(k) redrawn while r >= b - a + 1, k the bit length of
that width), so the values and the stream state equal those of the
``randint`` calls.  Generation is fully deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exact_linalg import (
    RationalMatrix,
    charpoly_adjugate,
    echelon_reduce,
    hurwitz_stable,
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
    "NotStable",
    "SpectralData",
    "SystemSpec",
    "generate_instance",
    "validate_system",
]


class KernelDimensionError(ValueError):
    """The zero eigenvalue is absent or not simple."""


class NotStable(ValueError):
    """Some nonzero eigenvalue fails to lie in the open left half-plane."""


class GenerationFailed(RuntimeError):
    """Bounded resampling could not produce an admissible instance."""


@dataclass(frozen=True)
class SystemSpec:
    """An n x n interaction matrix ``A`` with K diagonal transport
    directions, the rows of the K x n matrix ``D``."""

    n: int
    K: int
    D: RationalMatrix
    A: RationalMatrix
    label: str = ""

    @staticmethod
    def check_sizes(n: int, k: int) -> None:
        """Raise ValueError unless n >= 2 and K >= 1, before any matrix is built."""
        if n < 2:
            raise ValueError(f"n must be at least 2, got {n}")
        if k < 1:
            raise ValueError(f"K must be at least 1, got {k}")

    def __post_init__(self):
        self.check_sizes(self.n, self.K)
        if self.A.rows != self.n or self.A.cols != self.n:
            raise ValueError(f"A must be {self.n}x{self.n}")
        if (self.D.rows, self.D.cols) != (self.K, self.n):
            raise ValueError(f"D must hold {self.K} diagonals of length {self.n}")


@dataclass(frozen=True)
class SpectralData:
    """Normalized null pair of an admissible A, as 1 x n rows, and its
    group inverse G."""

    h1: RationalMatrix
    h1_star: RationalMatrix
    G: RationalMatrix


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


def _certified_pair(a: RationalMatrix) -> SpectralData:
    """Prove A admissible and return its normalized null pair and G.

    One ``charpoly_adjugate`` pass: raises ``KernelDimensionError`` when
    zero is not a root or not a simple one, then ``NotStable`` when the
    deflated polynomial is not Hurwitz.  The simple zero root makes
    adj(A) = α h1 h1_starᵀ with tr adj(A) = ±c_1 ≠ 0, so its first nonzero
    column is h1 and its first nonzero row h1_star, up to scale.  One
    ``RationalMatrix.null_pair`` pass on the integer rows checks
    A h1 = 0 and h1_starᵀ A = 0 as integer dot products and scales the
    pair to first-nonzero(h1) = 1 and (h1, h1_star) = 1, a pairing that
    trace keeps nonzero.  G is the group inverse the same pass returns
    at the simple zero root.
    """
    coeffs, adj, g = charpoly_adjugate(a)
    if coeffs.sign(0, 0):
        raise KernelDimensionError("zero is not an eigenvalue")
    if not coeffs.sign(0, 1):
        raise KernelDimensionError("zero eigenvalue is not simple")
    if not hurwitz_stable(coeffs.columns(1)):  # the deflated polynomial
        raise NotStable("nonzero spectrum is not contained in the open left half-plane")
    h1, h1_star = a.null_pair(adj)
    return SpectralData(h1=h1, h1_star=h1_star, G=g)


def validate_system(s: SystemSpec) -> SpectralData:
    """Check admissibility of A and return the normalized null pair and G.

    Raises ``KernelDimensionError`` when the zero eigenvalue is missing,
    repeated, or defective (λ² dividing the characteristic polynomial),
    and ``NotStable`` when the deflated polynomial is not Hurwitz.
    """
    return _certified_pair(s.A)


def _draw_row(
    rng: random.Random, count: int, low: int, high: int, scale: int = 0
) -> list[int]:
    """``count`` draws of ``rng.randint(low, high)``, in stream order; with
    a ``scale`` (a multiple of 1..high), each is followed by a denominator
    q = randint(1, high), and the entry is the numerator over that scale,
    draw · (scale // q).

    Drawn as ``randint`` draws them, through ``getrandbits``: randint(a, b)
    is a + r, with r = getrandbits(k) redrawn while r >= w, for the width
    w = b - a + 1 and k = w.bit_length(), so the values and the state of
    the stream are those of the ``randint`` calls.
    """
    bits = rng.getrandbits
    width = high - low + 1
    k, kq = width.bit_length(), high.bit_length()
    row = []
    for _ in range(count):
        r = bits(k)
        while r >= width:
            r = bits(k)
        if scale:
            q = bits(kq)
            while q >= high:
                q = bits(kq)
            row.append((low + r) * (scale // (q + 1)))
        else:
            row.append(low + r)
    return row


def _markov_generator(rng: random.Random, n: int, bound: int) -> RationalMatrix:
    """Matrix with positive off-diagonal entries and zero column sums,
    drawn column by column as integer numerators over lcm(1..bound) and
    scaled by one over that scale once."""
    scale = lcm(*range(1, bound + 1))
    columns = []
    for j in range(n):
        column = _draw_row(rng, n - 1, 1, bound, scale)
        column.insert(j, -sum(column))
        columns.append(column)
    return RationalMatrix(zip(*columns)).scale(Fraction(1, scale))


def _random_similar(
    rng: random.Random, base: RationalMatrix, bound: int
) -> RationalMatrix | None:
    """T B T⁻¹ for a random integer T, redrawn while singular, or None
    when a column sum of adj(T) is zero.

    One ``charpoly_adjugate`` pass on T: a zero constant coefficient marks
    a singular T, which is redrawn, and otherwise the pass gives adj(T)
    and T⁻¹ = adj(T) / det(T); the products run on integer rows.  For a
    Markov base B (1ᵀ B = 0, a simple zero eigenvalue) the left null
    vectors of T B T⁻¹ are the multiples of 1ᵀ T⁻¹, that is of 1ᵀ adj(T),
    so h1_star of the conjugate has a zero entry exactly when adj(T) has
    a zero column sum; such a T is rejected before it is conjugated.
    """
    n = base.rows
    for _ in range(_MAX_GENERATION_ATTEMPTS):
        t = RationalMatrix([_draw_row(rng, n, -bound, bound) for _ in range(n)])
        coeffs, adj, t_inv = charpoly_adjugate(t)
        if coeffs.sign(0, 0):
            if not (RationalMatrix([[1] * n]) @ adj).zero_free():
                return None
            return t @ base @ t_inv
    raise GenerationFailed("could not sample an invertible transform")


def _sample_interaction(
    cfg: GeneratorConfig, rng: random.Random
) -> tuple[RationalMatrix, SpectralData]:
    """One interaction matrix with its certified null pair.

    The Markov base is admissible by construction; a similarity candidate
    T B T⁻¹ shares its spectrum and is certified on its own.
    """
    base = _markov_generator(rng, cfg.n, _ENTRY_BOUND)
    if cfg.family == MARKOV_FAMILY:
        return base, _certified_pair(base)
    for _ in range(_MAX_GENERATION_ATTEMPTS):
        # T entries in [-3, 3] keep conjugated denominators modest
        a = _random_similar(rng, base, 3)
        if a is None:  # h1_star would have a zero entry
            continue
        data = _certified_pair(a)
        # Stay inside the rank law's evident hypothesis class: the
        # conjugation must not park a null vector on a coordinate plane.
        if data.h1.zero_free() and data.h1_star.zero_free():
            return a, data
    raise GenerationFailed("similarity transform kept zeroing a null-vector entry")


def _sample_diagonals(cfg: GeneratorConfig, rng: random.Random) -> RationalMatrix:
    """K diagonals in general position for the rank law, as the rows of
    a K x n matrix.

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
    Distinctness and the affine rank are tested on the integer numerators
    over one scale, each candidate reduced once against the echelon rows
    of [1; accepted diagonals]; the accepted numerators are scaled by one
    over that scale once, as one matrix.
    """
    n = cfg.n
    scale = lcm(*range(1, _ENTRY_BOUND + 1))
    echelon = [[1] * n]  # [1; accepted diagonals] in integer echelon rows
    drawn: list[tuple[int, ...]] = []  # numerators over scale
    for _ in range(cfg.K):
        for _ in range(_MAX_GENERATION_ATTEMPTS):
            d = tuple(_draw_row(rng, n, -_ENTRY_BOUND, _ENTRY_BOUND, scale))
            if len(set(d)) != n or d in drawn:
                continue
            if len(drawn) < n - 1:
                residual = echelon_reduce(echelon, d)
                if not any(residual):
                    continue  # affinely dependent: lower-rank stratum
                echelon.append(residual)
            drawn.append(d)
            break
        else:
            raise GenerationFailed("could not sample admissible transport diagonals")
    return RationalMatrix(drawn).scale(Fraction(1, scale))


def generate_instance(cfg: GeneratorConfig) -> tuple[SystemSpec, SpectralData]:
    """Deterministically generate an admissible random instance.

    Returns the instance with the spectral data of its validation.  The
    same config always returns the identical instance; all rejection
    loops draw from the one seeded stream and are attempt-bounded.
    """
    rng = random.Random(cfg.seed)
    a, data = _sample_interaction(cfg, rng)
    diagonals = _sample_diagonals(cfg, rng)
    label = f"{cfg.family}-n{cfg.n}-K{cfg.K}-seed{cfg.seed}"
    return SystemSpec(n=cfg.n, K=cfg.K, D=diagonals, A=a, label=label), data
