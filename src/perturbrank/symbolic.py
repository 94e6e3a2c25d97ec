"""Closed-form transfer structure for the two-state exchange family.

The family couples two states through opposing conversion channels with
rates scaled by a third parameter:

    A(a, b, k) = [ -a    b  ]
                 [ k*a  -k*b ]

with K transport directions carrying free diagonal speeds
D_i = diag(d_i1, d_i2).  Everything the numeric pipeline computes for a
concrete instance — kernel pair, drift velocities, constrained inverse,
the coupling matrix M — is reproduced here over the rational-function
field Q(a, b, k, d_11, ..., d_K2), following the exact same conventions
(kernel vectors scaled to leading entry 1, pairing normalized to 1), so
substituting numbers into the symbolic output must agree with the
numeric code to the last digit.  Every denominator on the way is a
product of powers of a, b, k, a + b*k and the Delta_i below, so the
entries are kept over that factor base (see ``multipoly``).

The punchline is structural: every entry satisfies

    M_ij = -c * Delta_i * Delta_j,     c = a*b*k / (a + b*k)^3,

where Delta_i = d_i1 - d_i2.  Hence M is a rank-one dyad whenever some
Delta_i is nonzero, its only nonzero eigenvalue is -c * sum(Delta_i^2),
and zero has multiplicity K - 1.  For positive rates this eigenvalue is
negative, so the leading-order profile spreads along a single direction
and is frozen along the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import InconsistentSystem, SizeLimitExceeded
from .multipoly import MultiPoly, RatFunc, ratfunc_tree

__all__ = [
    "ClosedFormSpectrum",
    "RankIdentityFailed",
    "SymbolicStructure",
    "MAX_SYMBOLIC_DIRECTIONS",
    "build_M_parametric",
    "eigen_closed_form_n2",
    "symbolic_report",
    "verify_rank_one_identity",
]

MAX_SYMBOLIC_DIRECTIONS = 6


class RankIdentityFailed(ValueError):
    """The dyad identity M_ij = -c*Delta_i*Delta_j does not hold."""


@dataclass(frozen=True)
class SymbolicStructure:
    """Exact transfer structure of the two-state family with K directions."""

    K: int
    variables: tuple[str, ...]
    h1: tuple[RatFunc, RatFunc]
    h1_star: tuple[RatFunc, RatFunc]
    velocities: tuple[RatFunc, ...]
    M: tuple[tuple[RatFunc, ...], ...]
    c: RatFunc
    deltas: tuple[RatFunc, ...]


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Spectrum of a rank-one M: one nonzero eigenvalue, rest zeros."""

    nonzero_eigenvalue: RatFunc
    zero_multiplicity: int


def _family_variables(K: int) -> tuple[str, ...]:
    """Variable names: rates a, b, k then speeds d{i}_1, d{i}_2 per direction."""
    names = ["a", "b", "k"]
    for i in range(1, K + 1):
        names.append(f"d{i}_1")
        names.append(f"d{i}_2")
    return tuple(names)


def _solve_interaction_constrained(
    a_par: RatFunc,
    k_par: RatFunc,
    y: tuple[RatFunc, RatFunc],
    h1: tuple[RatFunc, RatFunc],
    h1_star: tuple[RatFunc, RatFunc],
) -> tuple[RatFunc, RatFunc]:
    """Solve A(a,b,k) x = y with (x, h1_star) = 0 for the family matrix.

    Row 2 of A is -k times row 1, so the system is consistent exactly when
    y_2 + k y_1 = 0; the pivot equation -a x_1 + b x_2 = y_1 is solved with
    the free component set to zero and the result shifted along the kernel
    h1 to meet the constraint (the pairing (h1, h1_star) is 1 by
    construction, so the shift is just the stray inner product).
    """
    if not (y[1] + k_par * y[0]).is_zero():
        raise InconsistentSystem("right-hand side not orthogonal to the left kernel")
    x = (-(y[0] / a_par), RatFunc.constant(y[0].base, 0))
    shift = x[0] * h1_star[0] + x[1] * h1_star[1]
    return (x[0] - shift * h1[0], x[1] - shift * h1[1])


def build_M_parametric(K: int) -> SymbolicStructure:
    """Coupling matrix of the two-state family with K transport directions.

    Mirrors the numeric pipeline step for step over Q(a, b, k, d_ij):
    kernel pair, velocities, constrained inverse applied column by column,
    then the symmetrized quadratic form.  Supports 2 <= K <= 6; the
    variable count grows as 3 + 2K and exact rational-function arithmetic
    beyond that is not worth the wait.
    """
    if not 2 <= K <= MAX_SYMBOLIC_DIRECTIONS:
        raise SizeLimitExceeded(
            f"symbolic construction supports 2..{MAX_SYMBOLIC_DIRECTIONS} "
            f"directions, got {K}"
        )
    names = _family_variables(K)
    poly = {n: MultiPoly.variable(names, n) for n in names}
    # the factor base of every entry: each factor has degree one in a
    # variable whose coefficient is constant, so it is irreducible, and no
    # two are associates; a division that needs a denominator outside the
    # base raises ValueError
    base = (poly["a"], poly["b"], poly["k"], poly["a"] + poly["b"] * poly["k"])
    base += tuple(poly[f"d{i}_1"] - poly[f"d{i}_2"] for i in range(1, K + 1))

    def const(v: int | Fraction) -> RatFunc:
        return RatFunc.constant(base, v)

    def var(n: str) -> RatFunc:
        return RatFunc.variable(base, n)

    a, b, k = var("a"), var("b"), var("k")
    one = const(1)
    s = a + b * k

    # kernel pair, scaled exactly as the numeric code does:
    # right kernel with leading entry 1, left kernel divided by the pairing
    h1 = (one, a / b)
    h1_star = (b * k / s, b / s)

    d_vars = [(var(f"d{i}_1"), var(f"d{i}_2")) for i in range(1, K + 1)]
    weights = (h1[0] * h1_star[0], h1[1] * h1_star[1])
    velocities = tuple(
        d1 * weights[0] + d2 * weights[1] for d1, d2 in d_vars
    )
    # componentwise symbols of Psi_i = D_i - v_i I, their push-through
    # p_i = Psi_i h1 and their pull-back q_i = psi_i o h1_star
    psi = [
        (d1 - v, d2 - v) for (d1, d2), v in zip(d_vars, velocities)
    ]
    pushed = [(p0 * h1[0], p1 * h1[1]) for p0, p1 in psi]
    pulled = [(p0 * h1_star[0], p1 * h1_star[1]) for p0, p1 in psi]
    lifted = [
        _solve_interaction_constrained(a, k, w, h1, h1_star) for w in pushed
    ]

    def pairing(i: int, j: int) -> RatFunc:
        return pulled[i][0] * lifted[j][0] + pulled[i][1] * lifted[j][1]

    half = const(Fraction(1, 2))
    m_rows: list[tuple[RatFunc, ...]] = []
    entries: dict[tuple[int, int], RatFunc] = {}
    for i in range(K):
        for j in range(i, K):
            value = (pairing(i, j) + pairing(j, i)) * half
            entries[(i, j)] = value
            entries[(j, i)] = value
    for i in range(K):
        m_rows.append(tuple(entries[(i, j)] for j in range(K)))

    deltas = tuple(d1 - d2 for d1, d2 in d_vars)
    c = -(entries[(0, 0)] / (deltas[0] * deltas[0]))
    return SymbolicStructure(
        K=K,
        variables=names,
        h1=h1,
        h1_star=h1_star,
        velocities=velocities,
        M=tuple(m_rows),
        c=c,
        deltas=deltas,
    )


def verify_rank_one_identity(structure: SymbolicStructure) -> bool:
    """Check M_ij + c * Delta_i * Delta_j == 0 identically for all i, j.

    The right-hand side is symmetric, so the identity is tested on j >= i
    together with M_ji == M_ij.
    """
    M, deltas = structure.M, structure.deltas
    for i in range(structure.K):
        c_delta = structure.c * deltas[i]
        for j in range(i, structure.K):
            if M[j][i] != M[i][j] or not (M[i][j] + c_delta * deltas[j]).is_zero():
                return False
    return True


def eigen_closed_form_n2(structure: SymbolicStructure) -> ClosedFormSpectrum:
    """Exact spectrum of the rank-one dyad M = -c * Delta Delta^T.

    The single nonzero eigenvalue is the trace -c * sum(Delta_i^2) with
    eigenvector Delta; zero fills the remaining K - 1 dimensions.  Raises
    RankIdentityFailed if the dyad identity does not actually hold, since
    the closed form would then be meaningless.
    """
    if not verify_rank_one_identity(structure):
        raise RankIdentityFailed(
            "M is not the expected rank-one dyad; no closed-form spectrum"
        )
    total = RatFunc.constant(structure.c.base, 0)
    for delta in structure.deltas:
        total = total + delta * delta
    return ClosedFormSpectrum(
        nonzero_eigenvalue=-(structure.c * total),
        zero_multiplicity=structure.K - 1,
    )


def _entry_payload(f: RatFunc) -> dict:
    return {"text": str(f), "tree": ratfunc_tree(f)}


def symbolic_report(K: int) -> dict:
    """JSON-ready exact description of the K-direction two-state family."""
    structure = build_M_parametric(K)
    try:
        spectrum = eigen_closed_form_n2(structure)
    except RankIdentityFailed:
        spectrum = None
    report: dict = {
        "family": "two-state-exchange",
        "K": K,
        "variables": list(structure.variables),
        "normalization": (
            "kernel vectors scaled so each leading entry is 1 and the "
            "pairing (h1, h1_star) is 1; M is invariant under this choice"
        ),
        "h1": [_entry_payload(f) for f in structure.h1],
        "h1_star": [_entry_payload(f) for f in structure.h1_star],
        "velocities": [_entry_payload(f) for f in structure.velocities],
        "M": [[_entry_payload(f) for f in row] for row in structure.M],
        "c": _entry_payload(structure.c),
        "deltas": [_entry_payload(f) for f in structure.deltas],
        "rank_one_identity": spectrum is not None,
    }
    if spectrum is not None:
        report["spectrum"] = {
            "nonzero_eigenvalue": _entry_payload(spectrum.nonzero_eigenvalue),
            "zero_multiplicity": spectrum.zero_multiplicity,
        }
    return report
