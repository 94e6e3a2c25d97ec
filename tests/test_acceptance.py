"""End-to-end acceptance checks at full problem sizes.

Each test prints one `[PASS]/[FAIL] name: detail` line (shown with
``pytest -s``, or in captured output when a test fails) and asserts the
same condition.  The two campaign fixtures run at full size, so this
module takes a few minutes of CPU; nothing here is a scaled-down stand-in.
"""

import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

from perturbrank.asymptotics import (
    NotDissipative,
    ProfileQuery,
    analyze_structure,
    build_M,
    pde_residual,
    phi0_eval,
)
from perturbrank.cli import run_command
from perturbrank.exact_linalg import RationalMatrix, nullspace
from perturbrank.formats import load_instance_file
from perturbrank.model import (
    FAMILIES,
    MARKOV_FAMILY,
    SIMILARITY_FAMILY,
    GeneratorConfig,
    generate_instance,
    validate_system,
)
from perturbrank.search import (
    CampaignConfig,
    derive_instance_seed,
    run_campaign,
)
from perturbrank.symbolic import (
    build_M_parametric,
    eigen_closed_form_n2,
    verify_rank_one_identity,
)

from common import _flat, dot

W1_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "instances", "w1.json")

SYMBOLIC_DEADLINE_SECONDS = 10.0
RESIDUAL_RATIO_WINDOW = (3.2, 4.8)


def _verdict(spec):
    sd = validate_system(spec)
    ts = build_M(spec, sd)
    return ts, analyze_structure(ts)


def _line(ok: bool, name: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    """n, K in 2..5, 200 instances per cell, both families, seed 1."""
    art = str(tmp_path_factory.mktemp("small-grid-artifacts"))
    cfg = CampaignConfig(
        n_range=(2, 5), K_range=(2, 5), samples_per_cell=200, seed=1, worker_count=2
    )
    return run_campaign(cfg, artifact_dir=art), art


@pytest.fixture(scope="module")
def extended_grid(tmp_path_factory):
    """n, K in 2..8, 50 instances per cell, both families, seed 2."""
    art = str(tmp_path_factory.mktemp("extended-grid-artifacts"))
    cfg = CampaignConfig(
        n_range=(2, 8), K_range=(2, 8), samples_per_cell=50, seed=2, worker_count=2
    )
    return run_campaign(cfg, artifact_dir=art), art


def test_symbolic_closed_forms_within_deadline(capsys):
    """Two-state family: M = -c ΔΔᵀ verified identically for K = 2..5,
    nonzero eigenvalue -c·ΣΔ_i², zero multiplicity K-1, each under 10 s."""
    worst = 0.0
    for k in range(2, 6):
        started = time.monotonic()
        assert run_command(["symbolic", "--k", str(k)]) == 0
        elapsed = time.monotonic() - started
        worst = max(worst, elapsed)
        assert f"zero eigenvalue multiplicity: {k - 1}\n" in capsys.readouterr().out

        structure = build_M_parametric(k)
        assert verify_rank_one_identity(structure)
        eigenvalue = eigen_closed_form_n2(structure)
        # independent route: the nonzero eigenvalue of a symmetric rank-one
        # matrix is its trace
        trace = structure.M[0][0]
        for i in range(1, k):
            trace = trace + structure.M[i][i]
        assert eigenvalue == trace
        assert elapsed < SYMBOLIC_DEADLINE_SECONDS
    ok = worst < SYMBOLIC_DEADLINE_SECONDS
    assert _line(
        ok,
        "symbolic closed forms K=2..5",
        f"identity + spectrum exact, slowest K took {worst:.2f}s",
    )


def test_rank_law_on_small_grid(small_grid):
    """16 cells, 200 non-degenerate instances each, both families:
    rank M = min(n-1, K) with zero violations, exactly."""
    report, _ = small_grid
    assert tuple(report["config"]["families"]) == FAMILIES and len(FAMILIES) == 2
    assert len(report["cells"]) == 16
    for cell in report["cells"]:
        assert cell["samples"] == 200
        assert cell["degenerate"] == 0  # all 200 count as non-degenerate
        assert cell["violations"] == []
        assert cell["matches"] == 200
    ok = report["verdict"] == "all_match"
    assert _line(
        ok,
        "rank law, n,K in 2..5",
        f"3200 instances, verdict {report['verdict']}, 0 violations",
    )


def test_rank_law_on_extended_grid(extended_grid):
    """49 cells, 50 instances each: zero violations; any violation would be
    serialized, replayable, and reproduce identically."""
    report, art = extended_grid
    assert len(report["cells"]) == 49
    total = sum(cell["samples"] for cell in report["cells"])
    assert total == 49 * 50
    replayed = 0
    for cell in report["cells"]:
        for violation in cell["violations"]:
            assert violation["artifact"] is not None
            spec = load_instance_file(os.path.join(art, violation["artifact"]))
            _, again = _verdict(spec)
            assert again.outcome == "violation"
            assert again.rank_exact == violation["report"]["structure"]["rank_exact"]
            replayed += 1
    violations = sum(len(cell["violations"]) for cell in report["cells"])
    ok = violations == 0 and report["verdict"] == "all_match"
    assert _line(
        ok,
        "rank law, n,K in 2..8",
        f"{total} instances, {violations} violations ({replayed} replayed)",
    )


def test_canonical_two_direction_instance(capsys):
    """The hand-checked 2-state, 2-direction exchange system comes out
    exactly: v, G, M as rationals; rank 1; eigenvalues near -1/4 and 0."""
    assert run_command(["analyze", W1_PATH]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["transfer"]["v"] == ["1/2", "1/2"]
    assert data["transfer"]["G"] == [["-1/4", "1/4"], ["1/4", "-1/4"]]
    assert data["transfer"]["M"] == [["-1/8", "1/8"], ["1/8", "-1/8"]]
    assert data["structure"]["rank_exact"] == 1
    low, high = data["structure"]["eigenvalues"]
    ok = abs(low + 0.25) <= 1e-10 and abs(high) <= 1e-10
    assert _line(
        ok,
        "canonical instance",
        "exact v, G, M; eigenvalue deviations from {-1/4, 0} are "
        f"({abs(low + 0.25):.1e}, {abs(high):.1e}), within 1e-10",
    )


def _eliminated_group_inverse(a, sd):
    """G from elimination alone: column j of X solves A x = e_j - h1_star_j h1,
    read off the kernel of [A | h1 h1_starᵀ - I], then G = X - h1 (h1_starᵀ X)."""
    n = a.rows
    h, hs = sd.h1.transpose(), sd.h1_star
    projector = RationalMatrix.identity(n) - h @ hs
    aug = RationalMatrix(
        [a[i, j] for j in range(n)] + [-projector[i, j] for j in range(n)] for i in range(n)
    )
    # rank A = n - 1 and every column of the projector is in its range, so
    # the last n free columns are the projector's, in order
    tail = list(map(_flat, nullspace(aug)[-n:]))
    columns = [tuple(y / z[n + j] for y in z[:n]) for j, z in enumerate(tail)]
    x = RationalMatrix(zip(*columns))
    return x - h @ (hs @ x)


def test_exact_identity_suite():
    """500 random valid instances: kernel equations, normalization,
    centering, the pseudo-inverse equation with G from elimination equal
    to the certificate's G, symmetry of M, and invariance of M under
    G -> G + h1 cᵀ for 100 random rational c — all exact."""
    grid = [(n, k) for n in range(2, 6) for k in range(2, 6)]
    checked = 0
    shifts = 0
    for index in range(500):
        n, k = grid[index % len(grid)]
        family = FAMILIES[index % len(FAMILIES)]
        seed = derive_instance_seed(99, n, k, index)
        s, sd = generate_instance(GeneratorConfig(n=n, K=k, seed=seed, family=family))
        ts = build_M(s, sd)

        zero_n = (Fraction(0),) * n
        h1, h1_star = _flat(sd.h1), _flat(sd.h1_star)
        assert s.A @ sd.h1.transpose() == RationalMatrix([[0]] * n)
        assert tuple(dot(tuple(s.A[i, j] for i in range(n)), h1_star) for j in range(n)) == zero_n
        assert dot(h1, h1_star) == Fraction(1)
        w = [tuple(ts.P[i, j] for j in range(n)) for i in range(k)]
        for wi in w:
            assert dot(wi, h1_star) == Fraction(0)
        g = _eliminated_group_inverse(s.A, sd)
        assert g == sd.G
        assert s.A @ g == RationalMatrix.identity(n) - sd.h1.transpose() @ sd.h1_star
        for i in range(k):
            for j in range(i):
                assert ts.M[i, j] == ts.M[j, i]

        # invariance under the gauge freedom of the pseudo-inverse: shift
        # G by h1 cᵀ and reassemble M anew along each direction.
        # The 100 shifted lifts sit side by side in one n x 100K matrix,
        # block c = G Pᵀ + h1 (c Pᵀ); block c of Q L, Q = Psi diag(h1_star),
        # holds first[i][j] = psi_i · (shifted lift j) weighted by h1_star.
        rng = random.Random(seed ^ 0xC0FFEE)
        cs = RationalMatrix(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(100)
        )
        gammas = cs @ ts.P.transpose()  # row c holds c · w_i
        tile = RationalMatrix([int(j % k == i) for j in range(100 * k)] for i in range(k))
        lifts = g @ ts.P.transpose() @ tile + sd.h1.transpose() @ RationalMatrix(
            [[gammas[c, i] for c in range(100) for i in range(k)]]
        )
        q = RationalMatrix(
            [(d - ts.v[i, 0]) * hs for d, hs in zip(_flat(s.D.row(i)), h1_star)]
            for i in range(k)
        )
        ql = q @ lifts
        # (first + second) / 2 == M[i, j] on the integer rows of Q L and M
        for c in range(100):
            for i in range(k):
                for j in range(i, k):
                    first, second = ql.num[i][c * k + j], ql.num[j][c * k + i]
                    assert (first + second) * ts.M.den == 2 * ts.M.num[i][j] * ql.den
            shifts += 1
        checked += 1
    ok = checked == 500 and shifts == 500 * 100
    assert _line(
        ok,
        "exact identity suite",
        f"{checked} instances, all identities exact, {shifts} gauge shifts",
    )


def test_dissipativity_measured_and_breaches_replayable(small_grid, extended_grid):
    """Every campaign instance has its numeric spectrum checked against
    1e-9·max|M|.  The physical (column-generator) family never breaches —
    that bound is a theorem there.  Similarity-transformed instances can
    genuinely breach it; each such finding is captured as a replayable
    counterexample artifact that reproduces identically."""
    total = 0
    breaches = []
    for report, art in (small_grid, extended_grid):
        total += sum(cell["samples"] for cell in report["cells"])
        for cell in report["cells"]:
            for breach in cell["breaches"]:
                if breach["kind"] == "dissipativity":
                    breaches.append((breach, art))

    for breach, art in breaches:
        assert breach["family"] == SIMILARITY_FAMILY, (
            f"dissipativity breach outside the similarity family: "
            f"{breach['family']} seed {breach['instance_seed']}"
        )
        assert breach["detail"]["inertia"][0] > 0
        assert breach["artifact"] is not None
        spec = load_instance_file(os.path.join(art, breach["artifact"]))
        ts, again = _verdict(spec)
        replay = next(
            (d for d in again.breaches if d["kind"] == "dissipativity"), None
        )
        assert replay is not None, "breach did not reproduce on replay"
        assert {k: v for k, v in replay.items() if k != "kind"} == breach["detail"]
        # phi0 refuses the same M by the same predicate
        origin = (0.0,) * spec.K
        q = ProfileQuery(epsilon=1.0, t=1.0, x=origin, sigma0=1.0, amplitude=1.0)
        with pytest.raises(NotDissipative):
            phi0_eval(ts.M, q, origin)

    markov_clean = all(b["family"] != MARKOV_FAMILY for b, _ in breaches)
    ok = markov_clean and all(b["artifact"] is not None for b, _ in breaches)
    assert _line(
        ok,
        "dissipativity monitoring",
        f"{total} instances measured at 1e-9·max|M|; "
        f"{MARKOV_FAMILY}: 0 breaches; {SIMILARITY_FAMILY}: {len(breaches)} "
        "breaches, all captured, replayed identically and refused by phi0",
    )


def test_profile_residual_second_order(capsys):
    """On the canonical instance the discrete residual of
    φ_t + Σ M_ij φ_ij contracts like h² at 20 seeded points, and the
    h = 1e-3 residual sits below 1e-5 of the local profile value."""
    s = load_instance_file(W1_PATH)
    sd = validate_system(s)
    ts = build_M(s, sd)
    rng = random.Random(20260818)
    worst_ratio_low, worst_ratio_high = math.inf, 0.0
    worst_rel = 0.0
    for _ in range(20):
        zeta = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        t = rng.uniform(0.5, 2.0)
        q = ProfileQuery(epsilon=1.0, t=t, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        res = {
            h: pde_residual(ts.M, q, zeta, h)
            for h in (1e-2, 5e-3, 2.5e-3, 1e-3)
        }
        for h in (1e-2, 5e-3):
            ratio = res[h] / res[h / 2]
            worst_ratio_low = min(worst_ratio_low, ratio)
            worst_ratio_high = max(worst_ratio_high, ratio)
            assert RESIDUAL_RATIO_WINDOW[0] <= ratio <= RESIDUAL_RATIO_WINDOW[1]
        scale = abs(phi0_eval(ts.M, q, zeta))
        rel = res[1e-3] / scale
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-5
    ok = worst_rel <= 1e-5
    assert _line(
        ok,
        "second-order residual",
        f"20 points: ratios in [{worst_ratio_low:.2f}, {worst_ratio_high:.2f}] "
        f"⊂ [3.2, 4.8], max residual/φ at h=1e-3 is {worst_rel:.2e}",
    )


def test_numeric_and_exact_rank_agree_everywhere(small_grid, extended_grid):
    """On every campaign instance the count of numeric eigenvalues above
    1e-8·max|M| equals the exact rank (zero rank-agreement breaches)."""
    total = 0
    disagreements = 0
    for report, _ in (small_grid, extended_grid):
        total += sum(cell["samples"] for cell in report["cells"])
        for cell in report["cells"]:
            disagreements += sum(
                1 for b in cell["breaches"] if b["kind"] == "rank_agreement"
            )
    ok = disagreements == 0
    assert _line(
        ok,
        "numeric/exact rank agreement",
        f"{total} instances, {disagreements} disagreements at 1e-8·max|M|",
    )
    assert disagreements == 0
