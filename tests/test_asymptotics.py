from __future__ import annotations

import ast
import dataclasses
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from perturbrank.asymptotics import (
    NotDissipative,
    ProfileQuery,
    SingularCovariance,
    TransferStructure,
    analyze_structure,
    build_M,
    jacobi_eigenvalues,
    leading_term_eval,
    pde_residual,
    phi0_eval,
)
from perturbrank.exact_linalg import RationalMatrix, nullspace, rank_exact
from perturbrank.formats import load_instance_file
from perturbrank.model import (
    FAMILIES,
    GeneratorConfig,
    SystemSpec,
    generate_instance,
    validate_system,
)

from common import W1, _flat, dot, extreme_float

VIOLATION_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "instances", "violation-n3-K1.json"
)
TRIPLE = SystemSpec(
    n=3,
    K=2,
    D=RationalMatrix([[1, 2, 3], [0, 2, 1]]),
    A=RationalMatrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2]]),
    label="triple",
)


def _pipeline(s: SystemSpec):
    sd = validate_system(s)
    return sd, build_M(s, sd)


def _solve_constrained(m: RationalMatrix, y, c) -> tuple[Fraction, ...]:
    """Oracle, one column at a time: the x with m·x = y and (x, c) = 0, for
    m with a one-dimensional kernel span(h) and (c, h) != 0.  A solution
    x0 is read off the kernel of [m | -y], whose last entry scales to 1."""
    (h,) = map(_flat, nullspace(m))
    aug = RationalMatrix(
        [m[i, j] for j in range(m.cols)] + [-yi] for i, yi in enumerate(y)
    )
    z = next(v for v in map(_flat, nullspace(aug)) if v[-1] != 0)
    x0 = tuple(x / z[-1] for x in z[:-1])
    shift = dot(x0, c) / dot(c, h)
    return tuple(a - shift * b for a, b in zip(x0, h))


def _eliminated_group_inverse(a: RationalMatrix, sd) -> RationalMatrix:
    """Oracle: G column by column from ``_solve_constrained``, so it never
    touches the charpoly recurrence that gives ``sd.G``."""
    projector = RationalMatrix.identity(a.rows) - sd.h1.transpose() @ sd.h1_star
    columns = [
        _solve_constrained(a, [projector[i, j] for i in range(a.rows)], _flat(sd.h1_star))
        for j in range(a.cols)
    ]
    return RationalMatrix(zip(*columns))


def _assert_group_inverse(a: RationalMatrix, sd) -> None:
    n = a.rows
    h, hs = sd.h1.transpose(), sd.h1_star
    assert a @ sd.G == sd.G @ a == RationalMatrix.identity(n) - h @ hs
    assert hs @ sd.G == RationalMatrix([[0] * n])
    assert sd.G @ h == RationalMatrix([[0]] * n)
    assert sd.G == _eliminated_group_inverse(a, sd)


def _two_state_family(a: Fraction, b: Fraction, k: Fraction, diagonals) -> SystemSpec:
    mat = RationalMatrix([[-a, b], [k * a, -k * b]])
    return SystemSpec(n=2, K=len(diagonals), D=RationalMatrix(diagonals), A=mat)


class TestVelocities:
    def test_w1(self):
        sd = validate_system(W1)
        assert _flat(build_M(W1, sd).v) == (Fraction(1, 2), Fraction(1, 2))

    def test_uniform_null_vector_averages(self):
        sd = validate_system(TRIPLE)
        assert build_M(TRIPLE, sd).v[0, 0] == 2

    def test_constant_diagonal_gives_its_value(self):
        s = SystemSpec(
            n=2,
            K=1,
            D=RationalMatrix([[5, 5]]),
            A=W1.A,
        )
        sd = validate_system(s)
        assert _flat(build_M(s, sd).v) == (Fraction(5),)


class TestGroupInverse:
    """``SpectralData.G`` from the certificate's charpoly pass is the group
    inverse, and equals the column-by-column elimination oracle."""

    def test_w1_closed_form(self):
        sd = validate_system(W1)
        assert sd.G == RationalMatrix([["-1/4", "1/4"], ["1/4", "-1/4"]])
        _assert_group_inverse(W1.A, sd)

    def test_triple_closed_form(self):
        sd = validate_system(TRIPLE)
        expected = RationalMatrix(
            [
                [Fraction(1, 9) - Fraction(1, 3) if i == j else Fraction(1, 9) for j in range(3)]
                for i in range(3)
            ]
        )
        assert sd.G == expected
        _assert_group_inverse(TRIPLE.A, sd)

    def test_violation_instance_and_zero_null_vector_entries(self):
        # an upper-triangular A with a zero first column has h1 = e_1, and
        # its transpose has h1_star parallel to e_1
        triangular = RationalMatrix([[0, "1/2", 0], [0, -1, "1/3"], [0, 0, -2]])
        cases = [load_instance_file(VIOLATION_PATH).A, triangular, triangular.transpose()]
        pairs = []
        for a in cases:
            sd = validate_system(SystemSpec(n=a.rows, K=1, D=RationalMatrix([[0] * a.rows]), A=a))
            _assert_group_inverse(a, sd)
            pairs.append((_flat(sd.h1), _flat(sd.h1_star)))
        assert pairs[1][0] == (1, 0, 0)
        assert pairs[2][1] == (1, 0, 0)

    def test_defining_relations_and_column_solves(self):
        # 504 generated instances: both families, n in 2..8, 36 seeds each
        checked = 0
        for family in FAMILIES:
            for n in range(2, 9):
                for seed in range(36):
                    s, sd = generate_instance(
                        GeneratorConfig(n=n, K=2, seed=seed, family=family)
                    )
                    _assert_group_inverse(s.A, sd)
                    checked += 1
        assert checked == 504


class TestBuildM:
    def test_w1_matrix(self):
        sd, ts = _pipeline(W1)
        assert ts.M == RationalMatrix([["-1/8", "1/8"], ["1/8", "-1/8"]])
        assert _flat(ts.v) == (Fraction(1, 2), Fraction(1, 2))

    def test_psi_definition(self):
        sd, ts = _pipeline(W1)
        assert (ts.P.rows, ts.P.cols) == (W1.K, W1.n)
        for i, vi in enumerate(_flat(ts.v)):
            p = tuple(ts.P[i, j] for j in range(W1.n))
            assert p == tuple((x - vi) * h for x, h in zip(_flat(W1.D.row(i)), _flat(sd.h1)))

    def test_builds_M_without_elimination(self, monkeypatch):
        # build_M multiplies by the certificate's G: asymptotics imports no
        # solver, and no elimination runs while M is built
        import perturbrank.asymptotics as asymptotics
        import perturbrank.exact_linalg as exact_linalg

        tree = ast.parse(open(asymptotics.__file__, encoding="utf-8").read())
        imported = {
            alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "exact_linalg"
            for alias in node.names
        }
        assert imported == {"RationalMatrix", "inertia", "rank_exact"}
        s, sd = generate_instance(GeneratorConfig(n=6, K=3, seed=5))
        eliminations = []

        def recorded(a, symmetric=False):
            eliminations.append((len(a), symmetric))
            return original(a, symmetric)

        original = exact_linalg._forward
        monkeypatch.setattr(exact_linalg, "_forward", recorded)
        ts = build_M(s, sd)
        assert eliminations == []
        analyze_structure(ts)
        # the patch is live: one symmetric pass for the inertia of M, one
        # for the rank of P
        assert eliminations == [(3, True), (3, False)]

    def test_certificate_and_build_run_fused_kernels(self, monkeypatch):
        # validate_system and build_M take the null pair, v and Psi from the
        # one-pass kernels: no product, transpose, sum or difference runs
        instances = [W1, load_instance_file(VIOLATION_PATH)] + [
            generate_instance(GeneratorConfig(n=n, K=3, seed=n, family=family))[0]
            for family in FAMILIES
            for n in (2, 5, 8)
        ]
        calls = []

        def spy(name):
            original = getattr(RationalMatrix, name)

            def recorded(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(RationalMatrix, name, recorded)

        for name in ("__matmul__", "transpose", "_combine"):
            spy(name)
        for s in instances:
            build_M(s, validate_system(s))
        assert calls == []
        W1.A @ W1.A.transpose() - W1.A
        assert calls == ["transpose", "__matmul__", "_combine"]  # the spies are live

    def test_quadratic_form_route(self):
        # second exact route: M = Pᵀ B P with B = Sym(S G),
        # S = diag(h1_star_k / h1_k) and G from the elimination oracle, so
        # M has a route that never touches the charpoly recurrence
        cases = [W1, load_instance_file(VIOLATION_PATH)]
        for family in FAMILIES:
            for n in range(2, 9):
                for k in range(2, 9):
                    cfg = GeneratorConfig(n=n, K=k, seed=100 * n + k, family=family)
                    cases.append(generate_instance(cfg)[0])
        for s in cases:
            sd, ts = _pipeline(s)
            g = _eliminated_group_inverse(s.A, sd)
            sg = RationalMatrix(
                [[sd.h1_star[0, r] / sd.h1[0, r] * g[r, c] for c in range(s.n)]
                 for r in range(s.n)]
            )
            b = RationalMatrix(
                [[(sg[r, c] + sg[c, r]) / 2 for c in range(s.n)] for r in range(s.n)]
            )
            assert ts.P @ b @ ts.P.transpose() == ts.M

    def test_symmetric_kernel_equals_two_products(self):
        # the one symmetric pass against Q G Pᵀ + (Q G Pᵀ)ᵀ from the public
        # products, canonical fields included; K = 1 from the shipped
        # violation instance and from the first diagonal of each generated D
        cases = [W1, load_instance_file(VIOLATION_PATH)]
        for family in FAMILIES:
            for n in range(2, 9):
                for k in range(2, 9):
                    s = generate_instance(GeneratorConfig(n=n, K=k, seed=n * k, family=family))[0]
                    cases += [s, dataclasses.replace(s, K=1, D=s.D.row(0))]
        for s in cases:
            sd, ts = _pipeline(s)
            psi = s.D - ts.v @ RationalMatrix([[1] * s.n])
            half = sd.h1_star.scale(Fraction(1, 2))
            qx = psi.scale_columns(half) @ (sd.G @ psi.scale_columns(sd.h1).transpose())
            expected = qx + qx.transpose()
            m = psi.sym_congruence(half, sd.G, sd.h1)
            assert (m.num, m.den) == (expected.num, expected.den)
            assert ts.M == expected and ts.P == psi.scale_columns(sd.h1)
        assert sum(s.K == 1 for s in cases) == 1 + 2 * 7 * 7

    def test_symmetric_kernel_shapes(self):
        x = RationalMatrix([[1, 2, 3]])
        row, square = RationalMatrix([[1, 1, 1]]), RationalMatrix.identity(3)
        assert x.sym_congruence(row, square, row) == RationalMatrix([[28]])
        for args in ((row, RationalMatrix.identity(2), row), (RationalMatrix([[1, 1]]), square, row),
                     (row, square, row.transpose())):
            with pytest.raises(ValueError):
                x.sym_congruence(*args)

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
            D=RationalMatrix([[3, 3], [3, 3]]),
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
        sd, ts = _pipeline(TRIPLE)
        scale = Fraction(7, 3)
        rescaled = dataclasses.replace(
            sd,
            h1=sd.h1.scale(scale),
            h1_star=sd.h1_star.scale(1 / scale),
        )
        assert build_M(TRIPLE, rescaled).M == ts.M


class TestTheoremB:
    """The witness of the generic rank law (README, "What is proven").
    A = J - nI is an admissible Markov generator with h1 = 1, h1* = 1/n
    and G = -(I - J/n)/n, so build_M gives M = -P Pᵀ / n² exactly and
    rank M = rank P = min(K, n - 1) for D in general position."""

    def test_witness_identity_and_rank(self):
        rng = random.Random(2021)
        cells = 0
        for n in range(2, 13):
            A = RationalMatrix([[1 - n if i == j else 1 for j in range(n)] for i in range(n)])
            for K in range(1, n + 3):
                D = RationalMatrix(
                    [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                     for _ in range(K)]
                )
                spec = SystemSpec(n=n, K=K, D=D, A=A)
                ts = build_M(spec, validate_system(spec))
                assert ts.M == (ts.P @ ts.P.transpose()).scale(Fraction(-1, n * n)), (n, K)
                assert analyze_structure(ts).rank_exact == min(K, n - 1), (n, K)
                cells += 1
        assert cells == 99


class TestTheoremA:
    """The Markov class (README, "What is proven").  For A with
    nonnegative off-diagonal entries and zero column sums, h1 > 0 and
    h1* = 1 / sum(h1), Q = diag(h1*) A diag(h1) has nonnegative
    off-diagonal entries and zero row and column sums, so Sym(Q) is minus
    a weighted graph Laplacian, Sym(S G) is negative definite on h1*^⊥,
    and every non-degenerate instance is a MATCH with M <= 0."""

    def test_markov_draws_are_certified_matches(self):
        checked = 0
        for n in range(2, 9):
            for K in range(2, 9):
                for seed in (1, 2, 3):
                    s, sd = generate_instance(GeneratorConfig(n=n, K=K, seed=seed))
                    # Q = diag(h1*) A diag(h1), its rows scaled through a transpose
                    q = s.A.scale_columns(sd.h1).transpose().scale_columns(sd.h1_star)
                    q = q.transpose()
                    assert all(q[i, j] >= 0 for i in range(n) for j in range(n) if i != j)
                    assert q @ RationalMatrix([[1]] * n) == RationalMatrix([[0]] * n), (n, K, seed)
                    assert RationalMatrix([[1] * n]) @ q == RationalMatrix([[0] * n]), (n, K, seed)
                    report = analyze_structure(build_M(s, sd))
                    assert report.outcome == "match", (n, K, seed)
                    kinds = [b["kind"] for b in report.breaches]
                    assert "dissipativity" not in kinds, (n, K, seed)
                    checked += 1
        assert checked == 147


class TestAnalyzeStructure:
    def test_w1_report(self):
        sd, ts = _pipeline(W1)
        report = analyze_structure(ts)
        assert report.rank_exact == 1
        assert report.predicted_rank == 1
        assert report.rank_exact == report.predicted_rank
        assert report.outcome != "degenerate"
        assert nullspace(ts.M) == [RationalMatrix([[1, 1]])]
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
            D=RationalMatrix([[3, 3], [1, 2]]),
            A=W1.A,
        )
        sd, ts = _pipeline(s)
        report = analyze_structure(ts)
        assert report.outcome != "degenerate"
        assert report.rank_exact == 1
        assert report.rank_exact == report.predicted_rank

    def test_degenerate_equal_diagonals(self):
        d = (Fraction(1), Fraction(2), Fraction(3))
        s = SystemSpec(n=3, K=2, D=RationalMatrix([d, d]), A=TRIPLE.A)
        sd, ts = _pipeline(s)
        report = analyze_structure(ts)
        assert report.outcome == "degenerate"
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
        assert len(nullspace(ts.M)) == 4
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

    def test_rank_agreement_breach_leaves_the_outcome(self):
        # exact rank 2, but -1/10¹⁰ lies under RANK_AGREEMENT_TOLERANCE
        # times max|M| = 1, so the Jacobi spectrum counts rank 1
        ts = TransferStructure(
            v=RationalMatrix([[0], [0]]),
            P=RationalMatrix([[1, 0, -1], [0, 1, -1]]),
            M=RationalMatrix([[-1, 0], [0, Fraction(-1, 10**10)]]),
        )
        report = analyze_structure(ts)
        assert report.outcome == "match"
        assert report.rank_exact == report.predicted_rank == 2
        assert report.breaches == (
            {
                "kind": "rank_agreement",
                "numeric_rank": 1,
                "rank_exact": 2,
                "scale": 1.0,
                "tolerance": 1e-08,
            },
        )

    def test_one_dissipativity_predicate(self):
        # an eigenvalue 10⁻¹² times max|M| is lost under a float tolerance,
        # but the exact inertia has n+ = 1: the verdict records the breach
        # and the profile refuses the same M
        m = RationalMatrix([[-1, 0], [0, Fraction(1, 10**12)]])
        ts = TransferStructure(
            v=RationalMatrix([[0], [0]]), P=RationalMatrix([[1, 0, -1], [0, 1, -1]]), M=m
        )
        report = analyze_structure(ts)
        assert report.outcome == "match"
        assert report.breaches[0] == {
            "kind": "dissipativity",
            "inertia": [1, 0, 1],
            "max_eigenvalue": 1e-12,
            "scale": 1.0,
        }
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        with pytest.raises(NotDissipative, match=r"exact inertia .* = \(1, 0, 1\)"):
            phi0_eval(m, q, (0.0, 0.0))

    def test_non_symmetric_M_is_refused(self):
        ts = TransferStructure(
            v=RationalMatrix([[0], [0]]),
            P=RationalMatrix([[1, 0, -1], [0, 1, -1]]),
            M=RationalMatrix([[-1, 1], [0, -1]]),
        )
        with pytest.raises(ValueError, match="^inertia of a 2x2 matrix that is not symmetric$"):
            analyze_structure(ts)


def _index_loop_jacobi(sym: list[list[float]]) -> list[float]:
    """The cyclic Jacobi sweep written with a[k][p] index loops: the
    reference that the row-reference sweep must agree with bit for bit."""
    from perturbrank.asymptotics import JACOBI_MAX_SWEEPS, JACOBI_TOLERANCE

    n = len(sym)
    a = [row[:] for row in sym]
    scale = math.sqrt(sum(x * x for row in a for x in row))
    if scale == 0.0 or n == 1:
        return sorted(a[i][i] for i in range(n))
    threshold = JACOBI_TOLERANCE * scale
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= threshold / (n * n):
                    continue
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    return sorted(a[i][i] for i in range(n))


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

    def test_bit_identical_to_index_loop(self):
        # the row-reference sweep against the index-loop sweep it replaced,
        # kept verbatim here: generated M and random symmetric matrices of
        # sizes 1..9 with entry magnitudes from 1e-5 to 1e5
        mats = []
        for family in FAMILIES:
            for n in range(2, 9):
                for k in range(1, 10):
                    s = generate_instance(GeneratorConfig(n=n, K=max(k, 2), seed=n * k, family=family))[0]
                    if k == 1:
                        s = dataclasses.replace(s, K=1, D=s.D.row(0))
                    mats.append(_pipeline(s)[1].M.to_float())
        rng = random.Random(4242)
        for _ in range(400):
            n = rng.randint(1, 9)
            raw = [[rng.uniform(-1, 1) * 10 ** rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)]
            mats.append([[(raw[i][j] + raw[j][i]) / 2 for j in range(n)] for i in range(n)])
        assert len(mats) >= 500
        for sym in mats:
            expected = _index_loop_jacobi(sym)
            got = jacobi_eigenvalues(sym)
            assert [x.hex() for x in got] == [x.hex() for x in expected]

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
        # exactly one positive eigenvalue, under the float tolerance
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        tiny = RationalMatrix([[-1, 0], [0, "1/1000000000000"]])
        with pytest.raises(NotDissipative, match=r"exact inertia .* = \(1, 0, 1\)"):
            phi0_eval(tiny, q, (0.0, 0.0))

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
        out = leading_term_eval(sd, ts, q)
        peak = math.sqrt(2.0 / 3.0)
        assert out == pytest.approx([peak, peak], rel=1e-12)

    def test_x_length_must_be_K(self):
        sd, ts = _pipeline(W1)
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0, 0.0, 0.0), sigma0=1.0, amplitude=1.0)
        with pytest.raises(ValueError, match=r"^x must have length 2$"):
            leading_term_eval(sd, ts, q)

    def test_requires_positive_time(self):
        sd, ts = _pipeline(W1)
        q = ProfileQuery(epsilon=1.0, t=0.0, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        with pytest.raises(ValueError):
            leading_term_eval(sd, ts, q)

    def test_off_peak_decays_with_smaller_epsilon(self):
        sd, ts = _pipeline(W1)
        values = []
        for eps in (1.0, 0.5, 0.25):
            q = ProfileQuery(epsilon=eps, t=1.0, x=(1.5, 0.5), sigma0=1.0, amplitude=1.0)
            values.append(leading_term_eval(sd, ts, q)[0])
        assert values[0] > values[1] > values[2]

    def test_state_entry_beyond_float_range_names_it(self):
        # h1 = (1, 10^300): the profile value is finite, its product with
        # h1[1] is not, and no infinite entry is returned
        big = 10**300
        s = SystemSpec(
            n=2,
            K=2,
            D=RationalMatrix([[0, 1], [1, 0]]),
            A=RationalMatrix([[-big, 1], [big, -1]]),
        )
        sd, ts = _pipeline(s)
        assert _flat(sd.h1) == (1, big)
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0, 0.0), sigma0=1.0, amplitude=1e10)
        with pytest.raises(ValueError, match=r"^the state entry phi0 \* h1\[1\] overflows a float$"):
            leading_term_eval(sd, ts, q)
        value = leading_term_eval(sd, ts, dataclasses.replace(q, amplitude=1.0))
        assert value[1] == value[0] * 1e300 and math.isfinite(value[1])

    def test_comoving_point_past_float_range_is_zero(self):
        # (x - v t) / epsilon overflows to ±inf from finite inputs; the
        # Gaussian is 0 there, once the checks of phi0_eval have passed
        sd, ts = _pipeline(W1)
        q = ProfileQuery(epsilon=1e-310, t=1.0, x=(1.0, 0.0), sigma0=1.0, amplitude=1.0)
        assert leading_term_eval(sd, ts, q) == [0.0, 0.0]
        unstable = dataclasses.replace(ts, M=RationalMatrix([[1, 0], [0, -1]]))
        with pytest.raises(NotDissipative):
            leading_term_eval(sd, unstable, q)
        with pytest.raises(SingularCovariance, match="not positive definite"):
            leading_term_eval(sd, ts, dataclasses.replace(q, t=1e20))


def _gaussian_oracle(m: RationalMatrix, q: ProfileQuery, t: float, zeta) -> float:
    """The profile as one formula per point: a fresh covariance from the
    float image of m, its numpy determinant and a numpy solve."""
    sigma = q.sigma0 * q.sigma0 * np.eye(m.rows) - 2.0 * t * np.array(m.to_float(), dtype=float)
    det = float(np.linalg.det(sigma))
    z = np.array(zeta, dtype=float)
    quad = float(z @ np.linalg.solve(sigma, z))
    return q.amplitude * math.sqrt(q.sigma0 ** (2 * m.rows) / det) * math.exp(-0.5 * quad)


def _residual_oracle(m: RationalMatrix, q: ProfileQuery, zeta, h: float) -> float:
    """The central-difference residual with every stencil point evaluated
    on its own and every M entry read as float(Fraction)."""

    def phi(t, point):
        return _gaussian_oracle(m, q, t, point)

    def moved(*steps):
        point = list(zeta)
        for idx, delta in steps:
            point[idx] += delta
        return tuple(point)

    center = phi(q.t, zeta)
    total = (phi(q.t + h, zeta) - phi(q.t - h, zeta)) / (2.0 * h)
    for i in range(m.rows):
        for j in range(m.rows):
            mij = float(m[i, j])
            if mij == 0.0:
                continue
            if i == j:
                second = (phi(q.t, moved((i, h))) - 2.0 * center + phi(q.t, moved((i, -h)))) / (h * h)
            else:
                pp = phi(q.t, moved((i, h), (j, h)))
                pm = phi(q.t, moved((i, h), (j, -h)))
                mp = phi(q.t, moved((i, -h), (j, h)))
                mm = phi(q.t, moved((i, -h), (j, -h)))
                second = (pp - pm - mp + mm) / (4.0 * h * h)
            total += mij * second
    return abs(total)


def _per_entry_residual(m: RationalMatrix, q: ProfileQuery, zeta, h: float) -> float:
    """The residual stencil before each stencil point was solved once,
    verbatim: every entry M_ij != 0 in row-major order brings its own 2 or
    4 points into the batch at time t."""
    from dataclasses import replace

    from perturbrank.asymptotics import _dissipative_image, _profile

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

    # the centre, then the stencil of each entry M_ij != 0 in row-major
    # order (pp, pm, mp, mm off the diagonal): one batch at time t, read
    # back in the same order
    entries = [(i, j) for i in range(m.rows) for j in range(m.rows) if mf[i][j] != 0.0]
    points = [zeta]
    for i, j in entries:
        if i == j:
            points += [shifted((i, h)), shifted((i, -h))]
        else:
            points += [shifted((i, a), (j, b)) for a in (h, -h) for b in (h, -h)]
    values = iter(phi(points))
    center = next(values)
    total = (
        _profile(mf, replace(q, t=q.t + h))([zeta])[0]
        - _profile(mf, replace(q, t=q.t - h))([zeta])[0]
    ) / (2.0 * h)
    for i, j in entries:
        if i == j:
            up, down = next(values), next(values)
            second = (up - 2.0 * center + down) / (h * h)
        else:
            pp, pm, mp, mm = (next(values) for _ in range(4))
            second = (pp - pm - mp + mm) / (4.0 * h * h)
        total += mf[i][j] * second
    return abs(total)


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
        # an M is proven nonpositive, or refused, by one exact inertia pass,
        # and Jacobi never runs on the profile path
        import perturbrank.asymptotics as asymptotics

        calls = []
        jacobi, exact = asymptotics.jacobi_eigenvalues, asymptotics.inertia

        def counted_jacobi(sym):
            calls.append(("jacobi", len(sym)))
            return jacobi(sym)

        def counted_inertia(m):
            calls.append(("inertia", m.rows))
            return exact(m)

        monkeypatch.setattr(asymptotics, "jacobi_eigenvalues", counted_jacobi)
        monkeypatch.setattr(asymptotics, "inertia", counted_inertia)
        m = RationalMatrix([[-2, 1, 0], [1, -3, 1], [0, 1, -2]])
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0,) * 3, sigma0=2.0, amplitude=1.0)
        assert pde_residual(m, q, (0.1, -0.2, 0.3), 1e-2) < 1e-3
        assert calls == [("inertia", 3)]
        calls.clear()
        with pytest.raises(NotDissipative) as info:
            pde_residual(RationalMatrix([[1, 0], [0, -1]]), q, (0.0, 0.0), 1e-2)
        assert str(info.value) == (
            "M has 1 positive eigenvalue(s) (exact inertia (n+, n0, n-) = (1, 0, 1))"
        )
        assert calls == [("inertia", 2)]

    def test_one_float_image_and_three_profiles(self, monkeypatch):
        # the centre value comes from the time-t profile of the stencil, so
        # one residual makes one float image of M and one profile per time
        # level t - h, t + h and t
        import perturbrank.asymptotics as asymptotics

        _, ts = _pipeline(W1)
        calls = {"to_float": 0, "_profile": 0}
        to_float, profile = RationalMatrix.to_float, asymptotics._profile

        def counted_to_float(self):
            calls["to_float"] += 1
            return to_float(self)

        def counted_profile(mf, q):
            calls["_profile"] += 1
            return profile(mf, q)

        monkeypatch.setattr(RationalMatrix, "to_float", counted_to_float)
        monkeypatch.setattr(asymptotics, "_profile", counted_profile)
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        pde_residual(ts.M, q, (0.7, -0.3), 1e-2)
        assert calls == {"to_float": 1, "_profile": 3}

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_one_stacked_solve_per_time_level(self, monkeypatch, k):
        # the centre and every stencil point at time t go through one
        # stacked solve, t + h and t - h through one each: 3 calls at any K
        s, sd = generate_instance(GeneratorConfig(n=4, K=k, seed=k))
        m = build_M(s, sd).M
        batches = []
        solve = np.linalg.solve

        def counted(a, b):
            batches.append(b.shape[0])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0,) * k, sigma0=2.0, amplitude=1.0)
        zeta = tuple(0.1 * (i + 1) for i in range(k))
        pde_residual(m, q, zeta, 1e-2)
        # every entry of this M is nonzero: the centre, 2 points per
        # diagonal entry and 4 per off-diagonal pair (i, j) = (j, i)
        assert all(m[i, j] != 0 for i in range(k) for j in range(k))
        assert batches == [1 + 2 * k + 2 * (k * k - k), 1, 1]

    def test_overflow_fallback_inside_a_batch(self):
        # both far points overflow the plain form (to NaN and to +inf), so
        # each is redone on z / m; next to ordinary points in one batch each
        # point gets the value of a single-point call, bit for bit, and the
        # NaN becomes the Gaussian's 0 only through the fallback
        import perturbrank.asymptotics as asymptotics

        mf = _pipeline(W1)[1].M.to_float()
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0, 0.0), sigma0=0.5, amplitude=1.0)
        phi = asymptotics._profile(mf, q)
        points = [(0.3, -0.7), (1.5e308, 0.0), (-1.1, 0.4), (1e200, -1e199)]
        sigma = 0.25 * np.eye(2) - 2.0 * np.array(mf)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = [float(z @ np.linalg.solve(sigma, z)) for z in map(np.array, points)]
        assert math.isnan(plain[1]) and plain[3] == math.inf
        single = [phi([point])[0] for point in points]
        assert single[0] > 0.0 and single[2] > 0.0 and single[1] == single[3] == 0.0
        assert phi(points) == single
        assert phi(points[::-1]) == single[::-1]

    def test_negative_form_is_a_singular_covariance(self):
        # at t = 1e151 the float covariance of this instance is so
        # ill-conditioned that the computed form at these far points is
        # hugely negative, and exp(-form / 2) overflows
        spec, sd = generate_instance(GeneratorConfig(n=3, K=8, seed=759637858207))
        m = build_M(spec, sd).M
        q = ProfileQuery(
            epsilon=1.0, t=1e151, x=(0.0,) * 8, sigma0=1.2835416569009013, amplitude=1.0
        )
        zeta = (-7e151, -9e158, -5e158, -4e159, 5e153, 5e159, 5e152, 6e158)
        message = r"^covariance is not positive definite: a quadratic form is -\d\.\d{3}e\+\d+$"
        with pytest.raises(SingularCovariance, match=message):
            pde_residual(m, q, zeta, 1e145)
        with pytest.raises(SingularCovariance, match=message):
            phi0_eval(m, q, zeta)

    def test_no_profile_value_is_infinite_or_nan(self):
        # at t = 1e25 the form of this far point overflows, and its rescaled
        # form is negative, so the fallback gives -inf and exp(inf) = inf;
        # next to it a dissipative M with a tiny positive eigenvalue, at the
        # t where its covariance is nearly singular, makes the prefactor
        # overflow (the values were NaN)
        spec, sd = generate_instance(GeneratorConfig(n=3, K=8, seed=759637858207))
        m = build_M(spec, sd).M
        q = ProfileQuery(
            epsilon=1.0, t=1e25, x=(0.0,) * 8, sigma0=1.2835416569009013, amplitude=1.0
        )
        zeta = (3e159, 3e159, 2e159, 9e158, 7e159, 3e159, -1e159, -4e159)
        with pytest.raises(SingularCovariance) as exc:
            phi0_eval(m, q, zeta)
        assert str(exc.value) == "covariance is not positive definite: a quadratic form is -inf"
        # the profile itself, on the float image of an M with a tiny
        # positive eigenvalue (which the profile calls refuse by its exact
        # inertia), at the t where its covariance is nearly singular
        import perturbrank.asymptotics as asymptotics

        tiny = RationalMatrix([[-1, 0], [0, Fraction(1, 10**10)]])
        q = ProfileQuery(
            epsilon=1.0, t=(1 - 1e-12) / 2e-10, x=(0.0, 0.0), sigma0=1.0, amplitude=1e308
        )
        with pytest.raises(SingularCovariance) as exc:
            asymptotics._profile(tiny.to_float(), q)
        assert str(exc.value) == "the peak value amplitude * sqrt(det0 / det) overflows a float"
        for call in (lambda: phi0_eval(tiny, q, (0.1, 0.2)),
                     lambda: pde_residual(tiny, q, (0.1, 0.2), 1e-6)):
            with pytest.raises(NotDissipative) as refused:
                call()
            assert str(refused.value).endswith("exact inertia (n+, n0, n-) = (1, 0, 1))")
        # the same M at a tenth of the amplitude: finite values
        q = dataclasses.replace(q, amplitude=1e307)
        assert math.isfinite(asymptotics._profile(tiny.to_float(), q)([(0.1, 0.2)])[0])
        # the branch through a public call on a nonpositive M, w1's: LU's
        # determinant of sigma0² I comes out 4 ulps below sigma0 ** 4, so
        # sqrt(det0 / det) > 1 and the largest float amplitude overflows
        q = ProfileQuery(
            epsilon=1.0, t=0.0, x=(0.0, 0.0), sigma0=6.550770429955353,
            amplitude=sys.float_info.max,
        )
        with pytest.raises(SingularCovariance) as exc:
            phi0_eval(_pipeline(W1)[1].M, q, (0.0, 0.0))
        assert str(exc.value) == "the peak value amplitude * sqrt(det0 / det) overflows a float"

    def test_stacked_solve_and_form_equal_per_row(self):
        # the assumption the batch rests on: numpy's stacked gesv and its
        # stacked (1 x k) @ (k x 1) products give each row exactly what a
        # one-point solve and z @ x give
        rng = np.random.default_rng(32)
        for k in range(1, 9):
            r = rng.standard_normal((k, k))
            sigma = r @ r.T + k * np.eye(k)
            z = rng.standard_normal((50, k)) * 10.0 ** rng.integers(-3, 4, size=(50, 1))
            x = np.linalg.solve(sigma[None], z[..., None])
            forms = (z[:, None, :] @ x)[:, 0, 0]
            for row in range(len(z)):
                one = np.linalg.solve(sigma, z[row])
                assert np.array_equal(x[row, :, 0], one), (k, row)
                assert forms[row] == z[row] @ one, (k, row)

    def test_step_validation(self):
        _, ts = _pipeline(W1)
        q = ProfileQuery(epsilon=1.0, t=0.005, x=(0.0, 0.0), sigma0=1.0, amplitude=1.0)
        with pytest.raises(ValueError):
            pde_residual(ts.M, q, (0.0, 0.0), 0.01)
        with pytest.raises(ValueError):
            pde_residual(ts.M, q, (0.0, 0.0), 0.0)

    def test_bit_identical_to_per_point_oracle(self):
        rng = random.Random(20)
        cases = [_pipeline(W1)[1].M]
        for k in range(2, 9):
            for n in (2, 3, 5):
                s, sd = generate_instance(GeneratorConfig(n=n, K=k, seed=rng.getrandbits(40)))
                cases.append(build_M(s, sd).M)
        for m in cases:
            for _ in range(2):
                q = ProfileQuery(
                    epsilon=1.0,
                    t=rng.uniform(0.5, 3.0),
                    x=(0.0,) * m.rows,
                    sigma0=rng.uniform(0.5, 2.0),
                    amplitude=rng.uniform(0.5, 2.0),
                )
                zeta = tuple(rng.uniform(-1.5, 1.5) for _ in range(m.rows))
                h = rng.choice((1e-2, 1e-3, 2.5e-4))
                assert pde_residual(m, q, zeta, h) == _residual_oracle(m, q, zeta, h)
                assert phi0_eval(m, q, zeta) == _gaussian_oracle(m, q, q.t, zeta)

    def test_bit_identical_to_the_per_entry_stencil(self):
        # each pair (i, j), (j, i) is solved once and read twice: the same
        # floats as the stencil that solved every entry's points, bit for
        # bit, on dense generated M, sparse M and the shipped w1 instance;
        # an M that is not symmetric is refused before any float work
        rng = random.Random(39)
        shipped = os.path.join(os.path.dirname(VIOLATION_PATH), "w1.json")
        cases = [_pipeline(load_instance_file(shipped))[1].M]
        for k in range(2, 9):
            for n in (2, 4, 8):
                s, sd = generate_instance(GeneratorConfig(n=n, K=k, seed=rng.getrandbits(40)))
                cases.append(build_M(s, sd).M)
        cases.append(
            RationalMatrix([[-2, 0, 1, 0], [0, -1, 0, 0], [1, 0, -3, 0], [0, 0, 0, 0]])
        )
        unsymmetric = RationalMatrix([[-2, "1/3", 0], [0, -1, 0], [0, 0, "-1/2"]])
        q = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0,) * 3, sigma0=1.0, amplitude=1.0)
        with pytest.raises(ValueError, match="^M must be symmetric$"):
            pde_residual(unsymmetric, q, (0.0,) * 3, 1e-2)
        # a coarse step puts stencil values more than a factor 2 apart, where
        # pp - pm - mp and pp - mp - pm round differently
        for m in cases:
            for h in (1e-2, 1e-3, 2.5e-4, 0.5):
                q = ProfileQuery(
                    epsilon=1.0,
                    t=rng.uniform(0.5, 3.0),
                    x=(0.0,) * m.rows,
                    sigma0=rng.uniform(0.3, 2.0),
                    amplitude=rng.uniform(0.5, 2.0),
                )
                zeta = tuple(rng.uniform(-1.5, 1.5) for _ in range(m.rows))
                got, expected = pde_residual(m, q, zeta, h), _per_entry_residual(m, q, zeta, h)
                assert got.hex() == expected.hex(), (m, zeta, h)

    @pytest.mark.parametrize(
        "m, t, zeta, h, sigma0, error, message",
        [
            (RationalMatrix([[1, 0], [0, -1]]), 1.0, (0.0, 0.0), 1e-2, 1.0,
             NotDissipative, "M has 1 positive eigenvalue(s) (exact inertia (n+, n0, n-) = (1, 0, 1))"),
            (None, 1.0, (0.0, 0.0), 1e-2, 1e200,
             SingularCovariance, "sigma0 ** 4 overflows a float; use a smaller sigma0"),
            (None, 1.0, (0.0, 0.0), 0.0, 1.0, ValueError, "step h must be positive"),
            (None, 1.0, (0.0, 0.0), -1e-2, 1.0, ValueError, "step h must be positive"),
            (None, 1.0, (0.0, 0.0), math.nan, 1.0, ValueError, "step h must be positive"),
            (None, 1.0, (0.0, 0.0), 1e-200, 1.0,
             ValueError, "step h = 1e-200 is too small: h * h underflows to zero"),
            (None, 0.005, (0.0, 0.0), 1e-2, 1.0,
             ValueError, "step h must keep t - h nonnegative"),
            (None, 1e20, (0.0, 0.0), 1.0, 1.0,
             SingularCovariance, "covariance is not positive definite"),
            (RationalMatrix([[-1, 0], [0, -1]]), 1e20, (0.0, 0.0), 1.0, 1.0,
             ValueError, "step h = 1.0 is too small: t or zeta does not move by h"),
            (None, 1.0, (0.0, 1e20), 1.0, 1.0,
             ValueError, "step h = 1.0 is too small: t or zeta does not move by h"),
            (RationalMatrix([[-1, 0], [0, "1/1000000000000"]]), 1.0, (0.0, 0.0), 1e-2, 1.0,
             NotDissipative, "M has 1 positive eigenvalue(s) (exact inertia (n+, n0, n-) = (1, 0, 1))"),
        ],
    )
    def test_error_paths_keep_type_and_message(self, m, t, zeta, h, sigma0, error, message):
        m = _pipeline(W1)[1].M if m is None else m
        q = ProfileQuery(epsilon=1.0, t=t, x=(0.0, 0.0), sigma0=sigma0, amplitude=1.0)
        with pytest.raises(error) as info:
            pde_residual(m, q, zeta, h)
        assert type(info.value) is error and str(info.value) == message


class TestLibraryErrorContract:
    """The library half of the error contract (README, Library): on a seeded
    draw of extreme floats and wrong lengths, the profile calls return
    finite floats or raise ``ValueError`` (``NotDissipative`` and
    ``SingularCovariance`` are subclasses), and nothing else."""

    def test_profile_calls_return_finite_floats_or_raise_value_errors(self):
        cases = [_pipeline(W1)]
        for family in FAMILIES:
            for n, k in ((3, 2), (4, 3)):
                s, sd = generate_instance(GeneratorConfig(n=n, K=k, seed=n + k, family=family))
                cases.append((sd, build_M(s, sd)))
        rng = random.Random(1906)
        outcomes = {"finite": 0, "ValueError": 0}
        for _ in range(600):
            sd, ts = rng.choice(cases)
            k = ts.M.rows
            fields = {"epsilon": 1.0, "t": rng.uniform(0.5, 3.0), "sigma0": 1.0, "amplitude": 1.0}
            point = [rng.uniform(-2.0, 2.0) for _ in range(k)]
            for name in rng.sample([*fields, "point"], rng.randint(1, 2)):
                if name == "point":
                    point = [extreme_float(rng) for _ in range(k + rng.choice([0, 0, 0, -1, 1]))]
                else:
                    fields[name] = extreme_float(rng)
            h = rng.choice([1e-2, 1e-3, extreme_float(rng)])
            call = rng.choice(["phi0", "leading", "residual"])
            try:
                q = ProfileQuery(x=tuple(point), **fields)
                if call == "phi0":
                    values = [phi0_eval(ts.M, q, tuple(point))]
                elif call == "leading":
                    values = leading_term_eval(sd, ts, q)
                else:
                    values = [pde_residual(ts.M, q, tuple(point), h)]
            except ValueError:
                outcomes["ValueError"] += 1
            else:
                assert all(type(v) is float and math.isfinite(v) for v in values), (call, q, h)
                outcomes["finite"] += 1
        assert min(outcomes.values()) >= 100, outcomes
