"""Closed-form transfer structure for the two-state exchange family.

The family couples two states through opposing conversion channels with
rates scaled by a third parameter:

    A(a, b, k) = [ -a    b  ]
                 [ k*a  -k*b ]

with K transport directions carrying free diagonal speeds
D_i = diag(d_i1, d_i2).  Everything the numeric pipeline computes for a
concrete instance — kernel pair, drift velocities, group inverse G, the
coupling matrix M — is reproduced here over the rational-function field
Q(a, b, k, d_11, ..., d_K2), following the exact same conventions
(kernel vectors scaled to leading entry 1, pairing normalized to 1) and
the formula M = Q G Pᵀ + (Q G Pᵀ)ᵀ of ``asymptotics.build_M``, so
substituting numbers into the symbolic output must agree with the
numeric code to the last digit.  A has rank one and A² = -(a + b*k) A,
so G = A / (a + b*k)², as ``charpoly_adjugate`` gives it for n = 2.
The inputs bring two denominators, b in h1 and a + b*k in h1_star, G
and c, and sums and products need no other, so every value is kept over
the factor base (b, a + b*k) (see ``multipoly``).  Only M_00, M_01, M_10
and the velocity v_0 are computed: M_ij depends on the speeds of
directions i and j alone, and renaming directions fixes both factors, so
every other entry is one of these with its directions renamed, already
reduced and canonical (see ``build_M_parametric``).

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

from .exact_linalg import SizeLimitExceeded
from .multipoly import MultiPoly, RatFunc, ratfunc_tree

__all__ = [
    "SymbolicStructure",
    "MAX_SYMBOLIC_DIRECTIONS",
    "build_M_parametric",
    "eigen_closed_form_n2",
    "symbolic_report",
    "verify_rank_one_identity",
]

MAX_SYMBOLIC_DIRECTIONS = 6


@dataclass(frozen=True)
class SymbolicStructure:
    """Exact transfer structure of the two-state family with K directions;
    ``G`` is the group inverse of A, as ``SpectralData.G`` is."""

    K: int
    variables: tuple[str, ...]
    h1: tuple[RatFunc, RatFunc]
    h1_star: tuple[RatFunc, RatFunc]
    velocities: tuple[RatFunc, ...]
    G: tuple[tuple[RatFunc, ...], ...]
    M: tuple[tuple[RatFunc, ...], ...]
    c: RatFunc
    deltas: tuple[RatFunc, ...]


def _family_variables(K: int) -> tuple[str, ...]:
    """Variable names: rates a, b, k then speeds d{i}_1, d{i}_2 per direction."""
    return ("a", "b", "k", *(f"d{i}_{m}" for i in range(1, K + 1) for m in (1, 2)))


def build_M_parametric(K: int) -> SymbolicStructure:
    """Coupling matrix of the two-state family with K transport directions.

    Mirrors the numeric pipeline step for step over Q(a, b, k, d_ij):
    kernel pair, velocities, G = A / (a + b*k)², then M = X + Xᵀ with
    X = Q G Pᵀ.  Those sums compute v_0, M_00, M_01 and M_10 only; every
    other velocity and entry is one of these templates with its
    directions renamed.  Renaming direction i to sigma(i) is a field
    automorphism of Q(a, b, k, d_ij) that fixes a, b, k and so both
    factors of the base (b, a + b*k): a renamed value is reduced and
    canonical as it stands and shares its template's expanded
    denominator.  The kernel pair, G, c and the gaps
    Delta_i = d_i1 - d_i2 are built from their closed forms over the
    factor base; c is not read off M, so ``verify_rank_one_identity``
    checks every entry against a value the pipeline did not produce.
    Supports 2 <= K <= 6; the variable count grows as 3 + 2K.
    """
    if not 2 <= K <= MAX_SYMBOLIC_DIRECTIONS:
        raise SizeLimitExceeded(
            f"symbolic construction supports 2..{MAX_SYMBOLIC_DIRECTIONS} "
            f"directions, got {K!r:.60}"
        )
    names = _family_variables(K)
    poly = {n: MultiPoly.variable(names, n) for n in names}
    a, b, k = poly["a"], poly["b"], poly["k"]
    s = a + b * k
    # the factor base of every value: the denominators of h1, h1_star, G
    # and c.  Each factor has degree one in a variable whose coefficient is
    # constant, so it is irreducible, and the two are not associates;
    # RatFunc has no division, so no value can need a denominator outside
    # the base.  The constructor checks it here, once: every value below
    # is built over the base of this first one.
    base = RatFunc(MultiPoly.constant(names, 1), (b, s)).base

    def over(num: MultiPoly, *factors: MultiPoly) -> RatFunc:
        """num over the product of the listed base factors."""
        exps = [0] * len(base)
        for f in factors:
            exps[base.index(f)] += 1
        return RatFunc(num, base, exps)

    # kernel pair, scaled exactly as the numeric code does:
    # right kernel with leading entry 1, left kernel divided by the pairing
    h1 = (over(MultiPoly.constant(names, 1)), over(a, b))
    h1_star = (over(b * k, s), over(b, s))
    # A is rank one with A² = -s A, so its group inverse is A / s²
    G = tuple(tuple(over(x, s, s) for x in row) for row in ((-a, b), (k * a, -(k * b))))

    def renamed(f: RatFunc, *targets: int) -> RatFunc:
        """f with direction m renamed to targets[m], the rest kept in order."""
        order = [*targets, *(t for t in range(K) if t not in targets)]
        source = sorted(range(K), key=order.__getitem__)
        return f._renamed((0, 1, 2, *(3 + 2 * m + half for m in source for half in (0, 1))))

    d_vars = [(over(poly[f"d{i}_1"]), over(poly[f"d{i}_2"])) for i in (1, 2)]
    weights = (h1[0] * h1_star[0], h1[1] * h1_star[1])
    v0 = d_vars[0][0] * weights[0] + d_vars[0][1] * weights[1]
    velocities = (v0, *(renamed(v0, i) for i in range(1, K)))
    # as in build_M: rows psi_i of Psi = D - v 1ᵀ, P = Psi diag(h1),
    # Q = Psi diag(h1_star) / 2 and M = X + Xᵀ with X = Q G Pᵀ
    half = over(MultiPoly.constant(names, Fraction(1, 2)))
    psi = [(d1 - v, d2 - v) for (d1, d2), v in zip(d_vars, velocities)]
    P = [(p0 * h1[0], p1 * h1[1]) for p0, p1 in psi]
    Q = [(p0 * h1_star[0] * half, p1 * h1_star[1] * half) for p0, p1 in psi]
    gp = [tuple(g0 * p0 + g1 * p1 for g0, g1 in G) for p0, p1 in P]
    x = {(i, j): Q[i][0] * gp[j][0] + Q[i][1] * gp[j][1] for i, j in ((0, 0), (0, 1), (1, 0))}
    # the upper and lower templates are separate sums, so M_ji == M_ij
    # stays a check
    m00, m01, m10 = x[0, 0] + x[0, 0], x[0, 1] + x[1, 0], x[1, 0] + x[0, 1]
    m_rows = tuple(
        tuple(
            renamed(m00, i) if i == j
            else renamed(m01, i, j) if i < j
            else renamed(m10, j, i)
            for j in range(K)
        )
        for i in range(K)
    )

    deltas = tuple(over(poly[f"d{i}_1"] - poly[f"d{i}_2"]) for i in range(1, K + 1))
    c = over(a * b * k, s, s, s)
    return SymbolicStructure(
        K=K,
        variables=names,
        h1=h1,
        h1_star=h1_star,
        velocities=velocities,
        G=G,
        M=m_rows,
        c=c,
        deltas=deltas,
    )


def verify_rank_one_identity(structure: SymbolicStructure) -> bool:
    """Check M_ij + c * Delta_i * Delta_j == 0 identically for all i, j.

    The right-hand side is symmetric, so the identity is tested on all
    K(K+1)/2 entries j >= i together with M_ji == M_ij.  Every entry is
    a renamed template, but ``build_M_parametric`` sums the upper
    template M_01 and the lower template M_10 on their own, so that
    equality is a real check, and the identity holds for each renamed
    entry only if its renaming is right.
    """
    M, deltas = structure.M, structure.deltas
    for i in range(structure.K):
        c_delta = structure.c * deltas[i]
        for j in range(i, structure.K):
            if M[j][i] != M[i][j] or not (M[i][j] + c_delta * deltas[j]).is_zero():
                return False
    return True


def eigen_closed_form_n2(structure: SymbolicStructure) -> RatFunc | None:
    """The nonzero eigenvalue of the rank-one dyad M = -c * Delta Delta^T.

    It is the trace -c * sum(Delta_i^2), with eigenvector Delta; zero
    fills the remaining K - 1 dimensions.  None when the dyad identity
    does not hold, since the closed form would then be meaningless.
    """
    if not verify_rank_one_identity(structure):
        return None
    total = structure.deltas[0] * structure.deltas[0]
    for delta in structure.deltas[1:]:
        total = total + delta * delta
    return -(structure.c * total)


def _entry_payload(f: RatFunc) -> dict:
    return {"text": str(f), "tree": ratfunc_tree(f)}


def _matrix_payload(M: tuple[tuple[RatFunc, ...], ...], symmetric: bool) -> list:
    """The payloads of M; once M_ji == M_ij is verified, each unordered
    pair of entries shares one payload."""
    if not symmetric:
        return [[_entry_payload(f) for f in row] for row in M]
    out = [[None] * len(M) for _ in M]
    for i, row in enumerate(M):
        for j in range(i, len(row)):
            out[i][j] = out[j][i] = _entry_payload(row[j])
    return out


def symbolic_report(K: int) -> dict:
    """JSON-ready exact description of the K-direction two-state family."""
    structure = build_M_parametric(K)
    eigenvalue = eigen_closed_form_n2(structure)
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
        "M": _matrix_payload(structure.M, eigenvalue is not None),
        "c": _entry_payload(structure.c),
        "deltas": [_entry_payload(f) for f in structure.deltas],
        "rank_one_identity": eigenvalue is not None,
    }
    if eigenvalue is not None:
        report["spectrum"] = {
            "nonzero_eigenvalue": _entry_payload(eigenvalue),
            "zero_multiplicity": K - 1,
        }
    return report
