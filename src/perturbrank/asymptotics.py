"""Transfer structure of the conserved mode and its limiting profile.

Given an admissible system, the conserved mode travels with exact speed
v_i = (D_i h1, h1_star) along direction i.  The second-order (diffusive)
correction is governed by the symmetric K x K matrix

    M_ij = ((Psi_i G Psi_j + Psi_j G Psi_i) h1, h1_star) / 2,

where Psi_i = D_i - v_i I and G is the group inverse of A, determined by
A G = I - h1 h1_starᵀ and h1_starᵀ G = 0.  G comes with the certificate
of A (``SpectralData.G``, from its one charpoly pass), so M = Sym(Q G Pᵀ)
with P and Q the pushed vectors Psi_j h1 and psi_i ∘ h1_star / 2, and
no linear system is solved here.  D, the rows h1 and h1_star, the
speed column v, Psi, P and M are all ``RationalMatrix`` values, and
``build_M`` forms them with three kernels of ``exact_linalg``: ``center``
gives v and Psi = D - v 1ᵀ in one pass, ``scale_columns`` gives P, and
``sym_congruence`` gives M = Psi (C + Cᵀ) Psiᵀ with
C = diag(h1_star / 2) G diag(h1) in one symmetric pass.  They run on
integer rows with no conversion to entries; this module never sees how
an exact number is held.  The kernel of M, hence its rank, comes from
one fraction-free elimination.  The spectrum of M comes from a
hand-written cyclic Jacobi sweep on its float image (rows p and q bound
once per rotation), so the two routes stay independent.  The profile
queries first ask the exact ``inertia`` of M: with no positive
eigenvalue, M is proven dissipative and Jacobi does not run.  The limiting
profile itself is an anisotropic Gaussian with covariance
sigma0² I - 2 M t, evaluated in
floats with numpy; only that Gaussian imports numpy, on its first call,
so the exact routes never load it.  Its covariance, determinant and
prefactor are built once per time level, and a batch of points at that
level costs one stacked solve, so a residual stencil builds three
covariances and makes three solve calls, not one per point; the points
of entries (i, j) and (j, i) are the same four, solved once.  The stacked
solve and form give each point its one-point value bit for bit; one
solve with a K x m right-hand side, or an einsum form, does not.
Every query value must be finite.

``analyze_structure`` gives the one verdict that ``analyze``, campaigns
and library calls share.  The outcome comes from exact arithmetic alone:

  match       rank M = min(n-1, K)
  degenerate  rank span{Psi_i h1} < min(n-1, K); the rank law is not
              asserted there, and the generator never draws there
  violation   a rank mismatch on a non-degenerate instance

Two invariants are measured on the float image of M and recorded as
breaches when they fail; they never change the outcome:

  dissipativity   no numeric eigenvalue of M above tolerance: a theorem
                  for the markov_generator family (z -> (z, Sym(S G) z),
                  S = diag(h1*_m / h1_m), pulls back to a nonpositive
                  Markov Dirichlet form), but not similarity-invariant,
                  so transformed instances can have indefinite M.
                  ``phi0_eval`` refuses every M whose exact inertia has
                  n+ > 0, with this test's message when it fires and
                  naming the inertia when an eigenvalue is positive but
                  under the tolerance; for n+ = 0 the test cannot fire,
                  since Jacobi's error on the float image stays orders
                  of magnitude below its tolerance.  It refuses an M
                  that is not symmetric with ``ValueError`` before any
                  float work.
  rank_agreement  the numerically nonzero eigenvalue count equals the
                  exact rank; a breach is float trouble, not mathematics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .exact_linalg import RationalMatrix, inertia, nullspace, rank_exact
from .model import SpectralData, SystemSpec

#: Cyclic Jacobi: stop once the off-diagonal Frobenius mass drops below this
#: times the Frobenius norm of the input (or after the sweep cap).
JACOBI_TOLERANCE = 1e-12
JACOBI_MAX_SWEEPS = 100

#: A numeric eigenvalue of M above this times max|M| breaks dissipativity.
DISSIPATIVITY_TOLERANCE = 1e-9

#: Numeric eigenvalues larger than this times max|M| count as nonzero when
#: cross-checking the exact rank.
RANK_AGREEMENT_TOLERANCE = 1e-8

_HALF = Fraction(1, 2)

MATCH = "match"
DEGENERATE = "degenerate"
VIOLATION = "violation"

BREACH_KINDS = ("dissipativity", "rank_agreement")

__all__ = [
    "BREACH_KINDS",
    "DISSIPATIVITY_TOLERANCE",
    "RANK_AGREEMENT_TOLERANCE",
    "NotDissipative",
    "ProfileQuery",
    "StructureReport",
    "TransferStructure",
    "SingularCovariance",
    "analyze_structure",
    "build_M",
    "jacobi_eigenvalues",
    "leading_term_eval",
    "pde_residual",
    "phi0_eval",
]


class NotDissipative(ValueError):
    """M has a numerically positive eigenvalue; no spreading Gaussian exists."""


class SingularCovariance(ValueError):
    """The profile covariance failed to be positive definite, its
    determinant or the peak value it gives is out of float range, or a
    profile value would be infinite or NaN."""


@dataclass(frozen=True)
class TransferStructure:
    """Exact transfer data: speeds v, pushed vectors P and the symmetric
    diffusion matrix M.

    ``v`` is the K x 1 column of speeds, and ``P`` the K x n matrix whose
    row j is Psi_j h1 = ((D_j[m] - v_j) h1[m])_m.
    """

    v: RationalMatrix
    P: RationalMatrix
    M: RationalMatrix


@dataclass(frozen=True)
class StructureReport:
    """Exact rank, kernel rows, Jacobi spectrum and the verdict for one M:
    ``outcome`` (MATCH, DEGENERATE or VIOLATION) and ``breaches``, JSON-ready
    dicts with a ``kind`` from BREACH_KINDS and the offending numbers."""

    rank_exact: int
    eigenvalues: tuple[float, ...]
    predicted_rank: int
    kernel_directions: tuple[RationalMatrix, ...]
    outcome: str
    breaches: tuple[dict, ...]


@dataclass(frozen=True)
class ProfileQuery:
    """Evaluation request for the leading-order profile.

    ``t = 0`` is allowed (initial Gaussian); the full leading-term
    evaluation additionally requires t > 0.
    """

    epsilon: float
    t: float
    x: tuple[float, ...]
    sigma0: float
    amplitude: float

    def __post_init__(self):
        values = (self.epsilon, self.t, self.sigma0, self.amplitude, *self.x)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("epsilon, t, sigma0, amplitude and x must be finite")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.t < 0:
            raise ValueError("t must be nonnegative")
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")


def build_M(s: SystemSpec, sd: SpectralData) -> TransferStructure:
    """Assemble the speeds, the pushed vectors P and the matrix M.

    With Psi = D - v 1ᵀ (row i is psi_i), P = Psi diag(h1) and
    Q = Psi diag(h1_star) / 2, M = Q G Pᵀ + (Q G Pᵀ)ᵀ for the group
    inverse G of the certificate, that is M = Psi (C + Cᵀ) Psiᵀ with
    C = diag(h1_star / 2) G diag(h1), which ``sym_congruence`` forms in
    one symmetric pass.  The speeds are v_i = (D_i h1, h1_star), the
    column D diag(h1) h1_star, and ``center`` gives v and Psi together in
    one pass.  So building M takes three integer-row kernels and one
    scaling, and no entry is read.
    """
    v, psi = s.D.center(sd.h1, sd.h1_star)
    m = psi.sym_congruence(sd.h1_star.scale(_HALF), sd.G, sd.h1)
    return TransferStructure(v=v, P=psi.scale_columns(sd.h1), M=m)


def jacobi_eigenvalues(sym: list[list[float]]) -> list[float]:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending.

    Off-diagonal mass is driven below ``JACOBI_TOLERANCE`` times the input
    Frobenius norm, or ``JACOBI_MAX_SWEEPS`` sweeps, whichever comes first.
    Rows p and q are bound once per rotation, and columns p and q are
    updated row by row; the order of the updates and their float
    expressions are fixed, so the eigenvalues are reproducible bit for bit.
    """
    n = len(sym)
    a = [row[:] for row in sym]
    scale = math.sqrt(sum(x * x for row in a for x in row))
    if scale == 0.0 or n == 1:
        return sorted(a[i][i] for i in range(n))
    threshold = JACOBI_TOLERANCE * scale
    skip = threshold / (n * n)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= threshold:
            break
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                aq = a[q]
                apq = ap[q]
                if abs(apq) <= skip:
                    continue
                tau = (aq[q] - ap[p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                for row in a:
                    akp, akq = row[p], row[q]
                    row[p] = c * akp - s * akq
                    row[q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = ap[k], aq[k]
                    ap[k] = c * apk - s * aqk
                    aq[k] = s * apk + c * aqk
    return sorted(a[i][i] for i in range(n))


def _float_image(m: RationalMatrix, name: str = "M") -> list[list[float]]:
    """The float image of m; an entry beyond float range is an input error."""
    try:
        return m.to_float()
    except OverflowError:
        raise ValueError(f"{name} has an entry beyond float range") from None


def _float_spectrum(mf: list[list[float]]) -> tuple[tuple[float, ...], float]:
    """Jacobi eigenvalues (ascending) of the float image mf, and its max|entry|."""
    scale = max((abs(x) for row in mf for x in row), default=0.0)
    return tuple(jacobi_eigenvalues(mf)), scale


def _dissipativity_breach(eigs: tuple[float, ...], scale: float) -> dict | None:
    """The one dissipativity test: a breach record when the largest
    numeric eigenvalue exceeds ``DISSIPATIVITY_TOLERANCE`` times max|M|."""
    if eigs and eigs[-1] > DISSIPATIVITY_TOLERANCE * scale:
        return {
            "kind": "dissipativity",
            "max_eigenvalue": eigs[-1],
            "scale": scale,
            "tolerance": DISSIPATIVITY_TOLERANCE,
        }
    return None


def analyze_structure(ts: TransferStructure) -> StructureReport:
    """Exact rank, numeric spectrum, and the rank-law verdict for M.

    The exact rank is K minus the dimension of the exact kernel, both
    read off one elimination of M; the Jacobi spectrum is the independent
    float route.  The prediction is min(n - 1, K), with n and K the
    column and row counts of P.  The outcome DEGENERATE is the one
    definition of degeneracy, rank span{Psi_i h1} < min(n - 1, K), where
    the rank law is not asserted; otherwise the outcome is MATCH iff
    rank M = min(n - 1, K).  The generator screens degeneracy out by
    rank[1; D] - 1, equal to it only for an h1 without zero entries; a
    hand-fed h1 may have one, so this test stays on P.  The breaches read
    the Jacobi spectrum against max|M| of the same float image.
    """
    kernel = tuple(nullspace(ts.M))
    rank = ts.M.cols - len(kernel)
    eigs, scale = _float_spectrum(_float_image(ts.M))
    predicted = min(ts.P.cols - 1, ts.P.rows)
    degenerate = rank_exact(ts.P) < predicted
    outcome = DEGENERATE if degenerate else MATCH if rank == predicted else VIOLATION
    breach = _dissipativity_breach(eigs, scale)
    breaches = [] if breach is None else [breach]
    numeric_rank = sum(1 for ev in eigs if abs(ev) > RANK_AGREEMENT_TOLERANCE * scale)
    if numeric_rank != rank:
        breaches.append(
            {
                "kind": "rank_agreement",
                "numeric_rank": numeric_rank,
                "rank_exact": rank,
                "scale": scale,
                "tolerance": RANK_AGREEMENT_TOLERANCE,
            }
        )
    return StructureReport(
        rank_exact=rank,
        eigenvalues=eigs,
        predicted_rank=predicted,
        kernel_directions=kernel,
        outcome=outcome,
        breaches=tuple(breaches),
    )


def _dissipative_image(m: RationalMatrix, zeta: tuple[float, ...]) -> list[list[float]]:
    """The float image of m, once zeta is a finite point of length K, m is
    symmetric and m is proven nonpositive (exact inertia n+ = 0).  An m
    with n+ > 0 raises ``NotDissipative``, with the float test's message
    when that test flags it too and with the exact inertia otherwise."""
    k = m.rows
    if len(zeta) != k:
        raise ValueError(f"zeta must have length {k}")
    if not all(math.isfinite(z) for z in zeta):
        raise ValueError("zeta must be finite")
    if m != m.transpose():
        raise ValueError("M must be symmetric")
    mf = _float_image(m)
    signs = inertia(m)
    if signs[0] == 0:
        return mf
    breach = _dissipativity_breach(*_float_spectrum(mf))
    if breach is not None:
        raise NotDissipative(
            f"largest numeric eigenvalue {breach['max_eigenvalue']:.3e} exceeds tolerance"
        )
    raise NotDissipative(
        f"M has {signs[0]} positive eigenvalue(s) (exact inertia (n+, n0, n-) = {signs})"
    )


def _profile(mf: list[list[float]], q: ProfileQuery):
    """The Gaussian at time q.t, for the float image mf of M, as a function
    of a batch of comoving points (a sequence of K-tuples) that returns
    their values in order.

    Everything that depends on the time level alone is done here once:
    the covariance sigma0² I - 2 t M, its determinant and the prefactor
    amplitude · sqrt(det0 / det).  A batch then costs one stacked solve,
    ``np.linalg.solve(sigma[None], Z[..., None])``, one stacked form
    ``(Z[:, None, :] @ X)[:, 0, 0]`` and one exp per point.  Both run one
    LAPACK gesv and one dot per row, so every value equals the one-point
    ``z @ solve(sigma, z)`` bit for bit; one solve with a K x m right-hand
    side, ``solve(sigma, Z.T)``, or an ``np.einsum`` form change the last
    bit of many values.  No value it returns is infinite or NaN: a
    prefactor beyond float range, and a batch with a NaN or negative form
    that makes some value so, raise ``SingularCovariance``.
    """
    import numpy as np

    k = len(mf)
    try:  # first: a finite sigma0 ** (2K) keeps sigma0² I finite too
        det0 = q.sigma0 ** (2 * k)
    except OverflowError:
        raise SingularCovariance(
            f"sigma0 ** {2 * k} overflows a float; use a smaller sigma0"
        ) from None
    # an overflowed covariance has a NaN determinant, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = q.sigma0 * q.sigma0 * np.eye(k) - 2.0 * q.t * np.array(mf, dtype=float)
        det = float(np.linalg.det(sigma))
    if not det > 0:
        raise SingularCovariance("covariance is not positive definite")
    prefactor = q.amplitude * math.sqrt(det0 / det)
    if prefactor == math.inf:
        raise SingularCovariance("the peak value amplitude * sqrt(det0 / det) overflows a float")

    def quad_forms(z):
        return (z[:, None, :] @ np.linalg.solve(sigma[None], z[..., None]))[:, 0, 0]

    def at(points) -> list[float]:
        z = np.array(points, dtype=float)
        # at a far point the products in the form can overflow, to ±inf or
        # NaN; that point's form is then redone on z / m, with m the power
        # of two just under max|z| (an exact scaling), and m² put back
        with np.errstate(over="ignore", invalid="ignore"):
            quads = quad_forms(z).tolist()
            for r, quad in enumerate(quads):
                if not math.isfinite(quad):
                    m = 2.0 ** (math.frexp(float(np.abs(z[r]).max()))[1] - 1)
                    quads[r] = float(quad_forms(z[r : r + 1] / m)[0]) * m * m
        try:
            values = [prefactor * math.exp(-0.5 * quad) for quad in quads]
        except OverflowError:  # exp overflows on a hugely negative form
            values = [math.inf]
        if all(map(math.isfinite, values)):
            return values
        # with a finite prefactor and every form >= 0 each value is finite,
        # so some form is NaN or negative (-inf after the fallback); name a
        # NaN form first, else the most negative one
        form = min(quads, key=lambda x: (not math.isnan(x), x))
        message = f"covariance is not positive definite: a quadratic form is {form:.3e}"
        raise SingularCovariance(message)

    return at


def phi0_eval(m: RationalMatrix, q: ProfileQuery, zeta: tuple[float, ...]) -> float:
    """Leading-order scalar profile at comoving point zeta and time q.t.

    The Gaussian with covariance Sigma_t = sigma0² I - 2 M t solves
    phi_t + sum_ij M_ij phi_{zeta_i zeta_j} = 0 with an isotropic Gaussian
    of width sigma0 at t = 0 and peak value ``amplitude``.
    """
    return _profile(_dissipative_image(m, zeta), q)([zeta])[0]


def leading_term_eval(sd: SpectralData, ts: TransferStructure, q: ProfileQuery) -> list[float]:
    """Leading-order state vector phi0(zeta, t) · h1 at the lab point q.x.

    The comoving coordinates are zeta_i = (x_i - v_i t) / epsilon; the
    expansion is only valid for t > 0.  The checks of ``phi0_eval`` run
    first, on the finite x; a comoving point that overflows to ±inf lies
    where the Gaussian, its Sigma finite and >= sigma0² I, is 0.  A
    state entry phi0 · h1[i] beyond float range raises ``ValueError``
    naming i, so no entry it returns is infinite.
    """
    k = ts.M.rows
    if len(q.x) != k:
        raise ValueError(f"x must have length {k}")
    if not q.t > 0:
        raise ValueError("leading-term evaluation requires t > 0")
    phi = _profile(_dissipative_image(ts.M, q.x), q)
    v = _float_image(ts.v.transpose(), "v")[0]
    h1 = _float_image(sd.h1, "h1")[0]
    zeta = tuple((xi - vi * q.t) / q.epsilon for xi, vi in zip(q.x, v))
    value = phi([zeta])[0] if all(math.isfinite(z) for z in zeta) else 0.0
    state = [value * h for h in h1]
    for i, x in enumerate(state):
        if not math.isfinite(x):
            raise ValueError(f"the state entry phi0 * h1[{i}] overflows a float")
    return state


def pde_residual(
    m: RationalMatrix, q: ProfileQuery, zeta: tuple[float, ...], h: float
) -> float:
    """Second-order central-difference residual of phi_t + sum M_ij phi_ij.

    For the exact Gaussian profile this is O(h²); it is the independent
    check that the evaluated profile actually solves its equation.  The
    four points of an off-diagonal pair (i, j), (j, i) are solved once
    and read by both entries, with pm and mp swapped for the second; the
    sum keeps its row-major order and float expressions, so the value is
    the same float as when every entry solved its own points.
    """
    if not h > 0:
        raise ValueError("step h must be positive")
    if h * h == 0.0:
        raise ValueError(f"step h = {h!r} is too small: h * h underflows to zero")
    if q.t - h < 0:
        raise ValueError("step h must keep t - h nonnegative")
    mf = _dissipative_image(m, zeta)
    phi = _profile(mf, q)  # every stencil point but two lies at time t
    if q.t + h == q.t or any(z + h == z or z - h == z for z in zeta):
        raise ValueError(f"step h = {h!r} is too small: t or zeta does not move by h")

    def shifted(*steps: tuple[int, float]) -> tuple[float, ...]:
        moved = list(zeta)
        for idx, delta in steps:
            moved[idx] += delta
        return tuple(moved)

    # the centre, then the stencil of each pair i <= j with M_ij or M_ji
    # != 0 (pp, pm, mp, mm off the diagonal): one batch at time t.  Entry
    # (j, i) reads pair (i, j)'s values with pm and mp swapped, and the sum
    # runs over the entries M_ij != 0 in row-major order
    k = m.rows
    entries = [(i, j) for i in range(k) for j in range(k) if mf[i][j] != 0.0]
    pairs = sorted({(min(i, j), max(i, j)) for i, j in entries})
    points = [zeta]
    for i, j in pairs:
        if i == j:
            points += [shifted((i, h)), shifted((i, -h))]
        else:
            points += [shifted((i, a), (j, b)) for a in (h, -h) for b in (h, -h)]
    values = iter(phi(points))
    center = next(values)
    stencil = {(i, j): [next(values) for _ in range(2 if i == j else 4)] for i, j in pairs}
    total = (
        _profile(mf, replace(q, t=q.t + h))([zeta])[0]
        - _profile(mf, replace(q, t=q.t - h))([zeta])[0]
    ) / (2.0 * h)
    for i, j in entries:
        if i == j:
            up, down = stencil[i, i]
            second = (up - 2.0 * center + down) / (h * h)
        else:
            if i < j:
                pp, pm, mp, mm = stencil[i, j]
            else:
                pp, mp, pm, mm = stencil[j, i]
            second = (pp - pm - mp + mm) / (4.0 * h * h)
        total += mf[i][j] * second
    return abs(total)
