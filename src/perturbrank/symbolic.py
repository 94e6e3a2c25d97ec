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
the value M = Q G Pᵀ + (Q G Pᵀ)ᵀ of ``asymptotics.build_M`` (which
forms it as Psi (C + Cᵀ) Psiᵀ, C = diag(h1_star / 2) G diag(h1)), so
substituting numbers into the symbolic output must agree with the
numeric code to the last digit.  A has rank one and A² = -(a + b*k) A,
so G = A / (a + b*k)², as ``charpoly_adjugate`` gives it for n = 2.

The inputs bring two denominators, b in h1 and s = a + b*k in h1_star, G
and c, and sums and products need no other.  So every value lies in
Q[a, b, k, d][1/b, 1/s], which the substitution a = s - b*k turns into
the Laurent ring Q[s^±1, b^±1, k, d]: each value is a ``MultiPoly`` over
(s, b, k, d_11, ..., d_K2) whose exponents of s and b may be negative.
A Laurent polynomial has one representation, so sums, products and
equality need no division, no reduced form and no check of the
denominators.  Only M_00, M_01, M_10 and the velocity v_0 are computed:
M_ij depends on the speeds of directions i and j alone, and renaming
directions permutes exponent positions of the speeds only, so every
other entry is one of these with its directions renamed (see
``build_M_parametric``).  The report writes a value as num/den over
(a, b, k, d_11, ..., d_K2), converting each template once (see
``_Fractions``).

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
from functools import cache

from .exact_linalg import SizeLimitExceeded
from .multipoly import MultiPoly, _tree_text, poly_tree

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
    ``G`` is the group inverse of A, as ``SpectralData.G`` is.

    ``variables`` are the family's (a, b, k, d_11, ..., d_K2).  Every
    value is a Laurent polynomial over the same names with s = a + b*k in
    place of a, so a value f stands for f(a + b*k, b, k, d_11, ...)."""

    K: int
    variables: tuple[str, ...]
    h1: tuple[MultiPoly, MultiPoly]
    h1_star: tuple[MultiPoly, MultiPoly]
    velocities: tuple[MultiPoly, ...]
    G: tuple[tuple[MultiPoly, ...], ...]
    M: tuple[tuple[MultiPoly, ...], ...]
    c: MultiPoly
    deltas: tuple[MultiPoly, ...]


def _family_variables(K: int) -> tuple[str, ...]:
    """Variable names: rates a, b, k then speeds d{i}_1, d{i}_2 per direction."""
    return ("a", "b", "k", *(f"d{i}_{m}" for i in range(1, K + 1) for m in (1, 2)))


@cache  # K <= 6 and at most two targets: a few hundred entries at most
def _renaming(K: int, *targets: int) -> tuple[int, ...]:
    """Exponent positions that rename direction m to targets[m] and keep
    the rest in order, for ``MultiPoly._renamed``."""
    order = [*targets, *(t for t in range(K) if t not in targets)]
    source = sorted(range(K), key=order.__getitem__)
    return (0, 1, 2, *(3 + 2 * m + half for m in source for half in (0, 1)))


@cache
def _layout(K: int) -> tuple[tuple[tuple[tuple[int, int], tuple[int, ...]], ...], ...]:
    """For each entry (i, j) of M, the template entry it is built from and
    the renaming: M_00 on the diagonal, M_01 above it, M_10 below it."""
    return tuple(
        tuple(
            ((0, 0), _renaming(K, i)) if i == j
            else ((0, 1), _renaming(K, i, j)) if i < j
            else ((1, 0), _renaming(K, j, i))
            for j in range(K)
        )
        for i in range(K)
    )


def build_M_parametric(K: int) -> SymbolicStructure:
    """Coupling matrix of the two-state family with K transport directions.

    Mirrors the numeric pipeline step for step over Q(a, b, k, d_ij):
    kernel pair, velocities, G = A / (a + b*k)², then M = X + Xᵀ with
    X = Q G Pᵀ.  Every value is a Laurent polynomial in s = a + b*k and
    b (see the module docstring).  Those sums compute v_0, M_00, M_01
    and M_10 only; every other velocity and entry is one of these
    templates with its directions renamed.  Renaming direction i to
    sigma(i) is a ring automorphism that fixes s, b and k and permutes
    the speeds, so an image is a permutation of exponent positions and
    canonical as it stands.  The kernel pair, G, c and the gaps
    Delta_i = d_i1 - d_i2 are built from their closed forms; c is not
    read off M, so ``verify_rank_one_identity`` checks every entry
    against a value the pipeline did not produce.
    Supports 2 <= K <= 6; the variable count grows as 3 + 2K.
    """
    if not 2 <= K <= MAX_SYMBOLIC_DIRECTIONS:
        raise SizeLimitExceeded(
            f"symbolic construction supports 2..{MAX_SYMBOLIC_DIRECTIONS} "
            f"directions, got {K!r:.60}"
        )
    variables = _family_variables(K)
    names = ("s", *variables[1:])
    poly = {n: MultiPoly.variable(names, n) for n in names}
    s, b, k = poly["s"], poly["b"], poly["k"]
    one = MultiPoly.constant(names, 1)
    rest = (0,) * (len(names) - 2)
    inv_s = MultiPoly._monomial(names, (-1, 0, *rest))
    inv_b = MultiPoly._monomial(names, (0, -1, *rest))
    a = s - b * k

    # kernel pair, scaled exactly as the numeric code does:
    # right kernel with leading entry 1, left kernel divided by the pairing
    h1 = (one, a * inv_b)
    h1_star = (b * k * inv_s, b * inv_s)
    # A is rank one with A² = -s A, so its group inverse is A / s²
    inv_s2 = inv_s * inv_s
    G = tuple(tuple(x * inv_s2 for x in row) for row in ((-a, b), (k * a, -(k * b))))

    d_vars = [(poly[f"d{i}_1"], poly[f"d{i}_2"]) for i in (1, 2)]
    weights = (h1[0] * h1_star[0], h1[1] * h1_star[1])
    v0 = d_vars[0][0] * weights[0] + d_vars[0][1] * weights[1]
    velocities = (v0, *(v0._renamed(_renaming(K, i)) for i in range(1, K)))
    # as in build_M: rows psi_i of Psi = D - v 1ᵀ, P = Psi diag(h1),
    # Q = Psi diag(h1_star) / 2 and M = X + Xᵀ with X = Q G Pᵀ
    half = MultiPoly.constant(names, Fraction(1, 2))
    psi = [(d1 - v, d2 - v) for (d1, d2), v in zip(d_vars, velocities)]
    P = [(p0 * h1[0], p1 * h1[1]) for p0, p1 in psi]
    Q = [(p0 * h1_star[0] * half, p1 * h1_star[1] * half) for p0, p1 in psi]
    gp = [tuple(g0 * p0 + g1 * p1 for g0, g1 in G) for p0, p1 in P]
    x = {(i, j): Q[i][0] * gp[j][0] + Q[i][1] * gp[j][1] for i, j in ((0, 0), (0, 1), (1, 0))}
    # the upper and lower templates are separate sums, so M_ji == M_ij
    # stays a check
    templates = {
        (0, 0): x[0, 0] + x[0, 0],
        (0, 1): x[0, 1] + x[1, 0],
        (1, 0): x[1, 0] + x[0, 1],
    }
    m_rows = tuple(tuple(templates[t]._renamed(r) for t, r in row) for row in _layout(K))

    deltas = tuple(poly[f"d{i}_1"] - poly[f"d{i}_2"] for i in range(1, K + 1))
    c = a * b * k * inv_s2 * inv_s
    return SymbolicStructure(
        K=K,
        variables=variables,
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


def eigen_closed_form_n2(structure: SymbolicStructure) -> MultiPoly | None:
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


class _Fractions:
    """Writes the Laurent values of one structure as payloads over the
    family variables (a, b, k, d_11, ...): a reduced fraction with the
    denominator b^i (a + b*k)^j, its text and its expression tree.

    A value f is multiplied by b^i s^j, the least power that clears its
    negative exponents, and s = a + b*k is substituted into the product
    from cached powers of a + b*k (``MultiPoly._fraction``).  When j > 0
    some term of the product has no s, and when i > 0 some term has no
    b, so the fraction is reduced.  A denominator, its tree and the text
    of that tree are built once per (i, j).  The substitution leaves the
    speeds alone, so it commutes with renaming directions: a renamed
    value is its template's numerator renamed over the same denominator.
    """

    def __init__(self, variables: tuple[str, ...]):
        a, b, k = (MultiPoly.variable(variables, n) for n in "abk")
        self.variables = variables
        self.s_powers = [MultiPoly.constant(variables, 1), a + b * k]
        self.dens: dict[tuple[int, ...], tuple[MultiPoly, str | None, dict]] = {}

    def _s_power(self, j: int) -> MultiPoly:
        while len(self.s_powers) <= j:
            self.s_powers.append(self.s_powers[-1] * self.s_powers[1])
        return self.s_powers[j]

    def convert(self, f: MultiPoly) -> tuple[MultiPoly, tuple[MultiPoly, str | None, dict]]:
        """The numerator of f, and its denominator with the denominator's
        text (None for 1) and tree."""
        num, clear = f._fraction(self._s_power)
        den = self.dens.get(clear)
        if den is None:
            poly = MultiPoly._monomial(self.variables, (0, *clear[1:])) * self._s_power(clear[0])
            tree = poly_tree(poly)
            den = self.dens[clear] = (poly, f"({_tree_text(tree)})" if any(clear) else None, tree)
        return num, den

    def payload(self, f: MultiPoly) -> dict:
        return _payload(*self.convert(f))


def _payload(num: MultiPoly, den: tuple[MultiPoly, str | None, dict]) -> dict:
    """num over den: its text and its tree, from one ``poly_tree`` of num."""
    _, text, den_tree = den
    tree = poly_tree(num)
    num_text = _tree_text(tree)
    return {
        "text": num_text if text is None else f"({num_text})/{text}",
        "tree": {"op": "div", "numerator": tree, "denominator": den_tree},
    }


def symbolic_report(K: int) -> dict:
    """JSON-ready exact description of the K-direction two-state family.

    Every velocity and entry of M is written from the conversion of its
    template, renamed as ``build_M_parametric`` renamed it (``_layout``)."""
    structure = build_M_parametric(K)
    eigenvalue = eigen_closed_form_n2(structure)
    write = _Fractions(structure.variables)

    converted: dict[tuple[int, int], tuple] = {}
    M: list[list] = [[None] * K for _ in range(K)]
    for i, row in enumerate(_layout(K)):
        for j, (t, r) in enumerate(row):
            # once M_ji == M_ij is verified, each pair of entries shares
            # one payload; otherwise the lower entries come from their own
            # template
            if j < i and eigenvalue is not None:
                M[i][j] = M[j][i]
                continue
            if t not in converted:
                converted[t] = write.convert(structure.M[t[0]][t[1]])
            num, den = converted[t]
            M[i][j] = _payload(num._renamed(r), den)
    v_num, v_den = write.convert(structure.velocities[0])
    report: dict = {
        "family": "two-state-exchange",
        "K": K,
        "variables": list(structure.variables),
        "normalization": (
            "kernel vectors scaled so each leading entry is 1 and the "
            "pairing (h1, h1_star) is 1; M is invariant under this choice"
        ),
        "h1": [write.payload(f) for f in structure.h1],
        "h1_star": [write.payload(f) for f in structure.h1_star],
        "velocities": [_payload(v_num._renamed(_renaming(K, i)), v_den) for i in range(K)],
        "M": M,
        "c": write.payload(structure.c),
        "deltas": [write.payload(f) for f in structure.deltas],
        "rank_one_identity": eigenvalue is not None,
    }
    if eigenvalue is not None:
        report["spectrum"] = {
            "nonzero_eigenvalue": write.payload(eigenvalue),
            "zero_multiplicity": K - 1,
        }
    return report
