from __future__ import annotations

import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from perturbrank.asymptotics import (
    NotDissipative,
    ProfileQuery,
    TransferStructure,
    analyze_structure,
    build_M,
    group_inverse,
    jacobi_eigenvalues,
    leading_term_eval,
    pde_residual,
    phi0_eval,
)
from perturbrank.exact_linalg import (
    RationalMatrix,
    dot,
    nullspace,
    rank_exact,
    solve_particular,
)
from perturbrank.formats import load_instance_file
from perturbrank.model import (
    FAMILIES,
    GeneratorConfig,
    SystemSpec,
    generate_instance,
    validate_system,
)

VIOLATION_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "instances", "violation-n3-K1.json"
)
W1 = SystemSpec(
    n=2,
    K=2,
    D=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
    A=RationalMatrix([[-1, 1], [1, -1]]),
    label="w1",
)
TRIPLE = SystemSpec(
    n=3,
    K=2,
    D=((Fraction(1), Fraction(2), Fraction(3)), (Fraction(0), Fraction(2), Fraction(1))),
    A=RationalMatrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2]]),
    label="triple",
)


def _pipeline(s: SystemSpec):
    sd = validate_system(s)
    return sd, build_M(s, sd)


def _solve_constrained(m: RationalMatrix, y, c) -> tuple[Fraction, ...]:
    """Oracle, one column at a time: the x with m·x = y and (x, c) = 0, for
    m with a one-dimensional kernel span(h) and (c, h) != 0."""
    (h,) = nullspace(m)
    x = solve_particular(m, RationalMatrix((yi,) for yi in y))
    x0 = tuple(x[i, 0] for i in range(x.rows))
    shift = dot(x0, c) / dot(c, h)
    return tuple(a - shift * b for a, b in zip(x0, h))


def _two_state_family(a: Fraction, b: Fraction, k: Fraction, diagonals) -> SystemSpec:
    mat = RationalMatrix([[-a, b], [k * a, -k * b]])
    return SystemSpec(n=2, K=len(diagonals), D=tuple(diagonals), A=mat)


class TestVelocities:
    def test_w1(self):
        sd = validate_system(W1)
        assert build_M(W1, sd).v == (Fraction(1, 2), Fraction(1, 2))

    def test_uniform_null_vector_averages(self):
        sd = validate_system(TRIPLE)
        assert build_M(TRIPLE, sd).v[0] == 2

    def test_constant_diagonal_gives_its_value(self):
        s = SystemSpec(
            n=2,
            K=1,
            D=((Fraction(5), Fraction(5)),),
            A=W1.A,
        )
        sd = validate_system(s)
        assert build_M(s, sd).v == (Fraction(5),)


class TestGroupInverse:
    def test_w1_closed_form(self):
        sd = validate_system(W1)
        g = group_inverse(W1.A, sd)
        assert g == RationalMatrix([["-1/4", "1/4"], ["1/4", "-1/4"]])

    def test_triple_closed_form(self):
        sd = validate_system(TRIPLE)
        g = group_inverse(TRIPLE.A, sd)
        expected = RationalMatrix(
            [
                [Fraction(1, 9) - Fraction(1, 3) if i == j else Fraction(1, 9) for j in range(3)]
                for i in range(3)
            ]
        )
        assert g == expected

    def test_defining_relations_and_column_solves(self):
        rng = random.Random(424242)
        for family in FAMILIES:
            for _ in range(6):
                s, _ = generate_instance(
                    GeneratorConfig(
                        n=rng.randint(2, 5), K=2, seed=rng.getrandbits(40), family=family
                    )
                )
                sd = validate_system(s)
                g = group_inverse(s.A, sd)
                projector = RationalMatrix.identity(s.n) - RationalMatrix(
                    zip(sd.h1)
                ) @ RationalMatrix((sd.h1_star,))
                assert s.A @ g == projector
                assert g.transpose() @ RationalMatrix(zip(sd.h1_star)) == RationalMatrix(
                    [[0]] * s.n
                )
                assert s.A @ g @ s.A == s.A
                # dual route: each column must equal the one-column solver
                for j in range(s.n):
                    column = [projector[i, j] for i in range(s.n)]
                    col = _solve_constrained(s.A, column, sd.h1_star)
                    assert col == tuple(g[i, j] for i in range(s.n))


class TestBuildM:
    def test_w1_matrix(self):
        sd, ts = _pipeline(W1)
        assert ts.M == RationalMatrix([["-1/8", "1/8"], ["1/8", "-1/8"]])
        assert ts.v == (Fraction(1, 2), Fraction(1, 2))

    def test_psi_definition(self):
        sd, ts = _pipeline(W1)
        assert (ts.P.rows, ts.P.cols) == (W1.K, W1.n)
        for i, (d, vi) in enumerate(zip(W1.D, ts.v)):
            p = tuple(ts.P[i, j] for j in range(W1.n))
            assert p == tuple((x - vi) * h for x, h in zip(d, sd.h1))

    def test_solves_only_the_K_pushed_columns(self, monkeypatch):
        import perturbrank.asymptotics as asymptotics

        shapes = []
        original = asymptotics.solve_particular

        def recorded(m, y):
            shapes.append((y.rows, y.cols))
            return original(m, y)

        monkeypatch.setattr(asymptotics, "solve_particular", recorded)
        s, sd = generate_instance(GeneratorConfig(n=6, K=3, seed=5))
        build_M(s, sd)
        assert shapes == [(6, 3)]

    def test_quadratic_form_route(self):
        # second exact route: M = Pᵀ B P with B = Sym(S G),
        # S = diag(h1_star_k / h1_k) and G the full n-column group inverse
        cases = [W1, load_instance_file(VIOLATION_PATH)[0]]
        for family in FAMILIES:
            for n in range(2, 9):
                for k in range(2, 9):
                    cfg = GeneratorConfig(n=n, K=k, seed=100 * n + k, family=family)
                    cases.append(generate_instance(cfg)[0])
        for s in cases:
            sd, ts = _pipeline(s)
            g = group_inverse(s.A, sd)
            sg = RationalMatrix(
                [[sd.h1_star[r] / sd.h1[r] * g[r, c] for c in range(s.n)]
                 for r in range(s.n)]
            )
            b = RationalMatrix(
                [[(sg[r, c] + sg[c, r]) / 2 for c in range(s.n)] for r in range(s.n)]
            )
            assert ts.P @ b @ ts.P.transpose() == ts.M

    def test_symmetry_exact(self):
        rng = random.Random(11)
        for _ in range(10):
            s, _ = generate_instance(
                GeneratorConfig(n=rng.randint(2, 4), K=rng.randint(2, 4), seed=rng.getrandbits(40))
            )
            _, ts = _pipeline(s)
            assert ts.M == ts.M.transpose()

    def test_equal_diagonals_give_zero_matrix(self):
        s = SystemSpec(
            n=2,
            K=2,
            D=((Fraction(3), Fraction(3)), (Fraction(3), Fraction(3))),
            A=W1.A,
        )
        _, ts = _pipeline(s)
        assert ts.M == RationalMatrix([[0, 0], [0, 0]])

    def test_two_state_closed_form(self):
        # For A = [[-a, b], [k a, -k b]] the matrix must be exactly
        # -c * Delta Deltaᵀ with c = a b k / (a + b k)^3.
        rng = random.Random(777)
        for _ in range(25):
            a = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            k = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            kk = rng.randint(1, 5)
            diagonals = [
                (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
                for _ in range(kk)
            ]
            s = _two_state_family(a, b, k, diagonals)
            _, ts = _pipeline(s)
            c = a * b * k / (a + b * k) ** 3
            for i in range(kk):
                for j in range(kk):
                    delta_i = diagonals[i][0] - diagonals[i][1]
                    delta_j = diagonals[j][0] - diagonals[j][1]
                    assert ts.M[i, j] == -c * delta_i * delta_j

    def test_invariance_under_nullpair_rescaling(self):
        # M must not depend on how the null pair is scaled, as long as the
        # pairing stays 1.
        from perturbrank.model import SpectralData

        sd, ts = _pipeline(TRIPLE)
        scale = Fraction(7, 3)
        rescaled = SpectralData(
            h1=tuple(x * scale for x in sd.h1),
            h1_star=tuple(x / scale for x in sd.h1_star),
        )
        assert build_M(TRIPLE, rescaled).M == ts.M


class TestAnalyzeStructure:
    def test_w1_report(self):
        sd, ts = _pipeline(W1)
        report = analyze_structure(ts)
        assert report.rank_exact == 1
        assert report.predicted_rank == 1
        assert report.rank_matches_prediction
        assert not report.degenerate
        assert report.kernel_directions == ((Fraction(1), Fraction(1)),)
        assert len(report.eigenvalues) == 2
        assert abs(report.eigenvalues[0] + 0.25) < 1e-10
        assert abs(report.eigenvalues[1]) < 1e-10

    def test_one_constant_diagonal_matches(self):
        # Psi_1 h1 = 0, but Psi_2 h1 alone spans min(n - 1, K) = 1
        # dimension, so the instance is in general position and has the
        # predicted rank
        s = SystemSpec(
            n=2,
            K=2,
            D=((Fraction(3), Fraction(3)), (Fraction(1), Fraction(2))),
            A=W1.A,
        )
        sd, ts = _pipeline(s)
        report = analyze_structure(ts)
        assert not report.degenerate
        assert report.rank_exact == 1
        assert report.rank_matches_prediction

    def test_degenerate_equal_diagonals(self):
        d = (Fraction(1), Fraction(2), Fraction(3))
        s = SystemSpec(n=3, K=2, D=(d, d), A=TRIPLE.A)
        sd, ts = _pipeline(s)
        report = analyze_structure(ts)
        assert report.degenerate
        assert report.rank_exact == 1  # rank-one despite K = n - 1 = 2

    def test_wide_two_state_has_flat_kernel(self):
        rng = random.Random(31)
        diagonals = [
            (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
            for _ in range(5)
        ]
        s = _two_state_family(Fraction(2), Fraction(1), Fraction(3), diagonals)
        sd, ts = _pipeline(s)
        report = analyze_structure(ts)
        assert report.predicted_rank == 1
        assert report.rank_exact == 1
        assert len(report.kernel_directions) == 4
        near_zero = sum(1 for e in report.eigenvalues if abs(e) < 1e-12)
        assert near_zero == 4

    def test_rank_ceiling_on_random_instances(self):
        rng = random.Random(2024)
        for family in FAMILIES:
            for _ in range(10):
                s, _ = generate_instance(
                    GeneratorConfig(
                        n=rng.randint(2, 5),
                        K=rng.randint(2, 5),
                        seed=rng.getrandbits(40),
                        family=family,
                    )
                )
                sd, ts = _pipeline(s)
                assert rank_exact(ts.M) <= min(s.n - 1, s.K)


class TestJacobi:
    def test_matches_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(9000)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            raw = rng.normal(size=(n, n)) * float(rng.uniform(0.1, 50))
            sym = (raw + raw.T) / 2
            ours = jacobi_eigenvalues(sym.tolist())
            ref = np.linalg.eigvalsh(sym)
            assert np.allclose(ours, ref, rtol=1e-9, atol=1e-9 * max(1.0, abs(sym).max()))

    def test_zero_matrix(self):
        assert jacobi_eigenvalues([[0.0, 0.0], [0.0, 0.0]]) == [0.0, 0.0]

    def test_diagonal_passthrough(self):
        assert jacobi_eigenvalues([[3.0, 0.0], [0.0, -1.0]]) == [-1.0, 3.0]


class TestProfile:
    def setup_method(self):
        _, self.ts = _pipeline(W1)
        self.m = self.ts.M

    def test_initial_peak_is_amplitude(self):
        q = ProfileQuery(epsilon=1.0, t=0.0, x=(0.0, 0.0), sigma0=1.0, amplitude=2.5)
        assert phi0_eval(self.m, q, (0.0, 0.0)) == pytest.approx(2.5, rel=1e-14)

    def test_w1_unit_time_peak(self):
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        assert phi0_eval(self.m, q, (0.0, 0.0)) == pytest.approx(
            math.sqrt(2.0 / 3.0), rel=1e-12
        )

    def test_not_dissipative_rejected(self):
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0,), sigma0=1.0, amplitude=1.0)
        with pytest.raises(NotDissipative):
            phi0_eval(RationalMatrix([[1]]), q, (0.0,))

    def test_zero_matrix_is_stationary(self):
        m = RationalMatrix([[0, 0], [0, 0]])
        point = (0.3, -0.4)
        values = []
        for t in (0.0, 0.5, 2.0):
            q = ProfileQuery(epsilon=1.0, t=t, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
            values.append(phi0_eval(m, q, point))
        assert max(values) - min(values) == 0.0

    def test_mass_closed_form_constant_in_time(self):
        for t in (0.0, 0.25, 1.0, 3.0, 10.0):
            q = ProfileQuery(epsilon=1.0, t=t, x=(0.0, 0.0), sigma0=1.5, amplitude=0.7)
            sigma = 1.5**2 * np.eye(2) - 2.0 * t * np.array(self.m.to_float())
            peak = phi0_eval(self.m, q, (0.0, 0.0))
            mass = peak * (2 * math.pi) * math.sqrt(float(np.linalg.det(sigma)))
            assert mass == pytest.approx(0.7 * 2 * math.pi * 1.5**2, rel=1e-12)

    def test_mass_quadrature(self):
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        xs = np.arange(-7.0, 7.0 + 1e-9, 0.1)
        total = 0.0
        for u in xs:
            for w in xs:
                total += phi0_eval(self.m, q, (float(u), float(w)))
        total *= 0.1 * 0.1
        assert total == pytest.approx(2 * math.pi, rel=1e-3)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            ProfileQuery(epsilon=0.0, t=1.0, x=(0.0,), sigma0=1.0, amplitude=1.0)
        with pytest.raises(ValueError):
            ProfileQuery(epsilon=1.0, t=-1.0, x=(0.0,), sigma0=1.0, amplitude=1.0)
        with pytest.raises(ValueError):
            ProfileQuery(epsilon=1.0, t=1.0, x=(0.0,), sigma0=0.0, amplitude=1.0)
        with pytest.raises(ValueError):
            ProfileQuery(epsilon=1.0, t=1.0, x=(0.0,), sigma0=1.0, amplitude=0.0)
        with pytest.raises(ValueError, match="finite"):
            ProfileQuery(epsilon=1.0, t=math.inf, x=(0.0,), sigma0=1.0, amplitude=1.0)
        with pytest.raises(ValueError, match="finite"):
            ProfileQuery(epsilon=1.0, t=1.0, x=(math.nan,), sigma0=1.0, amplitude=1.0)
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0,), sigma0=1.0, amplitude=1.0)
        with pytest.raises(ValueError, match="zeta must be finite"):
            phi0_eval(RationalMatrix([[-1]]), q, (math.inf,))


class TestLeadingTerm:
    def test_comoving_peak(self):
        s = W1
        sd, ts = _pipeline(s)
        q = ProfileQuery(epsilon=0.5, t=1.0, x=(0.5, 0.5), sigma0=1.0, amplitude=1.0)
        out = leading_term_eval(s, sd, ts, q)
        peak = math.sqrt(2.0 / 3.0)
        assert out == pytest.approx([peak, peak], rel=1e-12)

    def test_requires_positive_time(self):
        sd, ts = _pipeline(W1)
        q = ProfileQuery(epsilon=1.0, t=0.0, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        with pytest.raises(ValueError):
            leading_term_eval(W1, sd, ts, q)

    def test_off_peak_decays_with_smaller_epsilon(self):
        sd, ts = _pipeline(W1)
        values = []
        for eps in (1.0, 0.5, 0.25):
            q = ProfileQuery(epsilon=eps, t=1.0, x=(1.5, 0.5), sigma0=1.0, amplitude=1.0)
            values.append(leading_term_eval(W1, sd, ts, q)[0])
        assert values[0] > values[1] > values[2]


class TestResidual:
    def test_zero_matrix_residual_is_tiny(self):
        m = RationalMatrix([[0, 0], [0, 0]])
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        assert pde_residual(m, q, (0.4, -0.2), 1e-3) < 1e-10

    def test_second_order_convergence(self):
        _, ts = _pipeline(W1)
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        zeta = (0.7, -0.3)
        r1 = pde_residual(ts.M, q, zeta, 1e-2)
        r2 = pde_residual(ts.M, q, zeta, 5e-3)
        assert 3.2 <= r1 / r2 <= 4.8

    def test_small_step_residual_is_small(self):
        _, ts = _pipeline(W1)
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        zeta = (0.5, 0.5)
        local = phi0_eval(ts.M, q, zeta)
        assert pde_residual(ts.M, q, zeta, 1e-3) <= 1e-5 * local

    def test_dissipativity_checked_once(self, monkeypatch):
        import perturbrank.asymptotics as asymptotics

        calls = []
        original = asymptotics.jacobi_eigenvalues

        def counted(sym):
            calls.append(len(sym))
            return original(sym)

        monkeypatch.setattr(asymptotics, "jacobi_eigenvalues", counted)
        m = RationalMatrix([[-2, 1, 0], [1, -3, 1], [0, 1, -2]])
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0,) * 3, sigma0=2.0, amplitude=1.0)
        assert pde_residual(m, q, (0.1, -0.2, 0.3), 1e-2) < 1e-3
        assert calls == [3]
        with pytest.raises(NotDissipative):
            pde_residual(RationalMatrix([[1, 0], [0, -1]]), q, (0.0, 0.0), 1e-2)

    def test_step_validation(self):
        _, ts = _pipeline(W1)
        q = ProfileQuery(epsilon=1.0, t=0.005, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        with pytest.raises(ValueError):
            pde_residual(ts.M, q, (0.0, 0.0), 0.01)
        with pytest.raises(ValueError):
            pde_residual(ts.M, q, (0.0, 0.0), 0.0)
