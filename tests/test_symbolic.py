"""Tests for the parametric two-state family: the dyad identity, the
closed-form constant, and exact agreement with the numeric pipeline."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from perturbrank.exact_linalg import RationalMatrix, SizeLimitExceeded
from perturbrank.asymptotics import build_M
from perturbrank.cli import run_command
from perturbrank.formats import dumps
from perturbrank.model import SystemSpec, validate_system
from perturbrank import multipoly
from perturbrank.multipoly import MultiPoly, RatFunc
from perturbrank.symbolic import (
    build_M_parametric,
    eigen_closed_form_n2,
    symbolic_report,
    verify_rank_one_identity,
)


# SHA-256 of dumps(symbolic_report(K)); a change that is meant to alter
# the report bytes must re-record them
REPORT_DIGESTS = {
    2: "fc68ba45e9bef1656e695b0f103d2456c4f2cf8534f6db6a5fd3132c0ae01ea8",
    3: "05e10711471442fbe3cc7f301b2ef8648b31c267d5044e4d0e0dfe2c0071fd59",
    4: "8a103570b98e24cc89f438df646f67b3ff8b37493fc44878153c8614f4bcaeec",
    5: "27f12276cb96fe2c986fb18e9a953c6175ea9a6e2ed362a6f76df508b075ffd0",
    6: "a9b2cd9d079a2d5d23b9b35dfdf6187d84de31768f3029338fe2bafd53c2de4e",
}


def closed_form_c(base):
    names = base[0].vars
    a = MultiPoly.variable(names, "a")
    b = MultiPoly.variable(names, "b")
    k = MultiPoly.variable(names, "k")
    exps = [0] * len(base)
    exps[base.index(a + b * k)] = 3
    return RatFunc(a * b * k, base, exps)


def direct_construction(st):
    """Every velocity and every entry of M from its own Q G Pᵀ sum, as in
    ``build_M``, from the structure's kernel pair and G; the oracle for
    the renamed templates of ``build_M_parametric``."""
    names, base = st.variables, st.c.base
    d_vars = [
        tuple(RatFunc(MultiPoly.variable(names, f"d{i}_{m}"), base) for m in (1, 2))
        for i in range(1, st.K + 1)
    ]
    h1, h1_star = st.h1, st.h1_star
    weights = (h1[0] * h1_star[0], h1[1] * h1_star[1])
    velocities = [d1 * weights[0] + d2 * weights[1] for d1, d2 in d_vars]
    half = RatFunc(MultiPoly.constant(names, Fraction(1, 2)), base)
    psi = [(d1 - v, d2 - v) for (d1, d2), v in zip(d_vars, velocities)]
    P = [(p0 * h1[0], p1 * h1[1]) for p0, p1 in psi]
    Q = [(p0 * h1_star[0] * half, p1 * h1_star[1] * half) for p0, p1 in psi]
    gp = [tuple(g0 * p0 + g1 * p1 for g0, g1 in st.G) for p0, p1 in P]
    x = [[q0 * c0 + q1 * c1 for c0, c1 in gp] for q0, q1 in Q]
    M = [[x[i][j] + x[j][i] for j in range(st.K)] for i in range(st.K)]
    return velocities, M


def random_values(rng, names):
    """Positive rational substitutions for the rates, free for the speeds."""
    values = {}
    for name in names:
        if name in ("a", "b", "k"):
            values[name] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        else:
            values[name] = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
    return values


def numeric_counterpart(values, K):
    a, b, k = values["a"], values["b"], values["k"]
    A = RationalMatrix([[-a, b], [k * a, -k * b]])
    D = tuple(
        (values[f"d{i}_1"], values[f"d{i}_2"]) for i in range(1, K + 1)
    )
    return SystemSpec(n=2, K=K, D=RationalMatrix(D), A=A)


class TestFamilyVariables:
    def test_order_and_names(self):
        assert build_M_parametric(2).variables == (
            "a", "b", "k", "d1_1", "d1_2", "d2_1", "d2_2"
        )

    def test_count(self):
        assert len(build_M_parametric(6).variables) == 15


class TestBuildMParametric:
    def test_size_guard(self):
        for bad in (1, 7, 0, -2):
            with pytest.raises(SizeLimitExceeded):
                build_M_parametric(bad)

    def test_coupling_constant_closed_form(self):
        st = build_M_parametric(2)
        assert st.c == closed_form_c(st.c.base)

    def test_diagonal_entry_closed_form(self):
        st = build_M_parametric(2)
        d1, d2 = (
            RatFunc(MultiPoly.variable(st.variables, name), st.c.base)
            for name in ("d1_1", "d1_2")
        )
        delta = d1 - d2
        assert st.M[0][0] == -(closed_form_c(st.c.base) * delta * delta)

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_renamed_entries_match_direct_construction(self, K):
        st = build_M_parametric(K)
        velocities, M = direct_construction(st)
        for i in range(K):
            assert st.velocities[i] == velocities[i], i
            for j in range(K):
                assert st.M[i][j] == M[i][j], (i, j)

    def test_divexact_calls_do_not_grow_with_K(self, monkeypatch):
        # only the templates for directions 0 and 1 are reduced by trial
        # division; every renamed value is reduced as it stands
        calls = []
        real = multipoly.poly_divexact

        def counted(f, g):
            calls.append(g)
            return real(f, g)

        monkeypatch.setattr(multipoly, "poly_divexact", counted)
        counts = {}
        for K in range(2, 7):
            calls.clear()
            build_M_parametric(K)
            counts[K] = len(calls)
        assert len(set(counts.values())) == 1, counts

    def test_factor_base_checked_once_per_build(self, monkeypatch):
        # every value of a build shares the base its first value checked
        checked = []
        real = multipoly._checked_base

        def counted(base):
            checked.append(len(base))
            return real(base)

        monkeypatch.setattr(multipoly, "_checked_base", counted)
        for K in range(2, 7):
            checked.clear()
            build_M_parametric(K)
            assert checked == [2]

    def test_factor_base_is_the_input_denominators(self):
        for K in range(2, 7):
            st = build_M_parametric(K)
            b, k, a = (MultiPoly.variable(st.variables, name) for name in "bka")
            assert st.c.base == (b, a + b * k)

    def test_renamed_values_share_the_template_denominator(self):
        # velocity 0 is the template of every velocity; every diagonal,
        # upper and lower entry of M is a renamed image of one template, so
        # each group shares one expanded denominator object
        for K in range(2, 7):
            st = build_M_parametric(K)
            M = st.M
            groups = (
                st.velocities,
                [M[i][i] for i in range(K)],
                [M[i][j] for i in range(K) for j in range(i + 1, K)],
                [M[j][i] for i in range(K) for j in range(i + 1, K)],
            )
            for group in groups:
                assert all(f.den is group[0].den for f in group), K

    def test_fraction_constructions_do_not_grow_with_K(self):
        # coefficients are integers over one denominator, so a build and a
        # report construct the same few Fractions whatever K is
        built = []
        original = vars(Fraction)["__new__"]

        def counted(cls, *args, **kwargs):
            built.append(cls)
            return original.__func__(cls, *args, **kwargs)

        counts = {}
        Fraction.__new__ = staticmethod(counted)
        try:
            for K in range(2, 7):
                built.clear()
                build_M_parametric(K)
                counts[K] = [len(built)]
                built.clear()
                symbolic_report(K)
                counts[K].append(len(built))
        finally:
            Fraction.__new__ = original
        assert len({tuple(c) for c in counts.values()}) == 1, counts

    def test_matrix_is_symmetric(self):
        st = build_M_parametric(3)
        for i in range(3):
            for j in range(3):
                assert st.M[i][j] == st.M[j][i]

    def test_group_inverse_identities(self):
        # A G = G A = I - h1 h1_star^T, G h1 = 0 and h1_star^T G = 0, over
        # the field, for the closed form G = A / (a + b k)^2
        st = build_M_parametric(2)
        base = st.c.base
        a, b, k = (
            RatFunc(MultiPoly.variable(st.variables, name), base) for name in "abk"
        )
        A = ((-a, b), (k * a, -(k * b)))
        G, h, hs = st.G, st.h1, st.h1_star
        zero, one = (RatFunc(MultiPoly.constant(st.variables, v), base) for v in (0, 1))

        def mul(x, y):
            return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]

        projector = [[(one if i == j else zero) - h[i] * hs[j] for j in range(2)] for i in range(2)]
        assert mul(A, G) == projector
        assert mul(G, A) == projector
        for i in range(2):
            assert G[i][0] * h[0] + G[i][1] * h[1] == zero
            assert hs[0] * G[0][i] + hs[1] * G[1][i] == zero

    def test_pairing_is_one(self):
        st = build_M_parametric(2)
        pairing = st.h1[0] * st.h1_star[0] + st.h1[1] * st.h1_star[1]
        assert pairing == RatFunc(MultiPoly.constant(st.variables, 1), st.c.base)

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    def test_rank_one_identity(self, K):
        assert verify_rank_one_identity(build_M_parametric(K))

    def test_identity_detects_mutation(self):
        st = build_M_parametric(2)
        one = RatFunc(MultiPoly.constant(st.variables, 1), st.c.base)
        rows = [list(row) for row in st.M]
        rows[0][1] = rows[0][1] + one
        rows[1][0] = rows[1][0] + one
        broken = dataclasses.replace(
            st, M=tuple(tuple(row) for row in rows)
        )
        assert not verify_rank_one_identity(broken)
        assert eigen_closed_form_n2(broken) is None

    def test_identity_detects_lower_triangle_mutation(self):
        st = build_M_parametric(3)
        one = RatFunc(MultiPoly.constant(st.variables, 1), st.c.base)
        rows = [list(row) for row in st.M]
        rows[1][0] = rows[1][0] + one
        broken = dataclasses.replace(
            st, M=tuple(tuple(row) for row in rows)
        )
        assert not verify_rank_one_identity(broken)
        assert eigen_closed_form_n2(broken) is None


class TestClosedFormEigenvalue:
    def test_zero_multiplicity(self):
        for K in (2, 4):
            assert isinstance(eigen_closed_form_n2(build_M_parametric(K)), RatFunc)
            assert symbolic_report(K)["spectrum"]["zero_multiplicity"] == K - 1

    def test_unit_rates_give_eighth(self):
        # a = b = k = 1 makes c = 1/8; speeds (1,0),(0,1) give
        # sum of squared gaps 2, so the nonzero eigenvalue is -1/4
        eigenvalue = eigen_closed_form_n2(build_M_parametric(2))
        values = {"a": 1, "b": 1, "k": 1, "d1_1": 1, "d1_2": 0, "d2_1": 0, "d2_2": 1}
        assert eigenvalue.eval(values) == Fraction(-1, 4)

    def test_eigenvalue_is_trace(self):
        st = build_M_parametric(3)
        trace = st.M[0][0] + st.M[1][1] + st.M[2][2]
        assert eigen_closed_form_n2(st) == trace


class TestNumericAgreement:
    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    def test_substitution_matches_numeric_pipeline(self, K):
        st = build_M_parametric(K)
        rng = random.Random(1000 + K)
        checked = 0
        while checked < (100 if K <= 4 else 20):
            values = random_values(rng, st.variables)
            spec = numeric_counterpart(values, K)
            sd = validate_system(spec)
            ts = build_M(spec, sd)
            v = ts.v
            for i in range(K):
                assert st.velocities[i].eval(values) == v[i, 0]
                for j in range(K):
                    assert st.M[i][j].eval(values) == ts.M[i, j]
            checked += 1

    def test_group_inverse_matches_numeric(self):
        st = build_M_parametric(2)
        rng = random.Random(78)
        for _ in range(25):
            values = random_values(rng, st.variables)
            sd = validate_system(numeric_counterpart(values, 2))
            for i in range(2):
                for j in range(2):
                    assert st.G[i][j].eval(values) == sd.G[i, j]

    def test_kernel_pair_matches_numeric(self):
        st = build_M_parametric(2)
        rng = random.Random(77)
        for _ in range(25):
            values = random_values(rng, st.variables)
            spec = numeric_counterpart(values, 2)
            sd = validate_system(spec)
            for idx in range(2):
                assert st.h1[idx].eval(values) == sd.h1[0, idx]
                assert st.h1_star[idx].eval(values) == sd.h1_star[0, idx]


class TestSymbolicReport:
    def test_report_shape_and_identity(self):
        report = symbolic_report(2)
        assert report["family"] == "two-state-exchange"
        assert report["K"] == 2
        assert report["rank_one_identity"] is True
        assert report["spectrum"]["zero_multiplicity"] == 1
        assert report["c"]["text"].startswith("(a*b*k)/(")
        assert len(report["M"]) == 2 and len(report["M"][0]) == 2

    def test_identity_verified_once_per_report(self, monkeypatch):
        calls = []

        def counted(structure):
            calls.append(structure.K)
            return verify_rank_one_identity(structure)

        monkeypatch.setattr("perturbrank.symbolic.verify_rank_one_identity", counted)
        symbolic_report(3)
        assert calls == [3]

    def test_report_without_identity_has_no_spectrum(self, monkeypatch):
        st = build_M_parametric(2)
        one = RatFunc(MultiPoly.constant(st.variables, 1), st.c.base)
        rows = [list(row) for row in st.M]
        rows[0][0] = rows[0][0] + one
        broken = dataclasses.replace(st, M=tuple(tuple(row) for row in rows))
        monkeypatch.setattr("perturbrank.symbolic.build_M_parametric", lambda K: broken)
        report = symbolic_report(2)
        assert report["rank_one_identity"] is False
        assert "spectrum" not in report

    def test_symmetric_entries_share_a_payload_once_verified(self, monkeypatch):
        M = symbolic_report(3)["M"]
        assert all(M[i][j] is M[j][i] for i in range(3) for j in range(3))
        # unverified, M_ji == M_ij may fail, so each entry has its own payload
        monkeypatch.setattr("perturbrank.symbolic.verify_rank_one_identity", lambda st: False)
        M = symbolic_report(3)["M"]
        assert not any(M[i][j] is M[j][i] for i in range(3) for j in range(i))

    @pytest.mark.parametrize("K", [2, 4])
    def test_scaled_M_fails_the_identity(self, K, monkeypatch, capsys):
        # half = 1 doubles every M_ij; c is its closed form, not a quotient
        # of M, so the dyad identity must fail and the command exit 1
        monkeypatch.setattr("perturbrank.symbolic.Fraction", lambda num, den: num)
        report = symbolic_report(K)
        assert report["rank_one_identity"] is False
        assert "spectrum" not in report
        assert run_command(["symbolic", "--k", str(K)]) == 1
        assert "failed to reduce" in capsys.readouterr().err

    def test_report_is_json_serializable_and_deterministic(self):
        first = json.dumps(symbolic_report(3), sort_keys=True)
        second = json.dumps(symbolic_report(3), sort_keys=True)
        assert first == second

    @pytest.mark.parametrize("K", sorted(REPORT_DIGESTS))
    def test_reports_pinned_by_digest(self, K):
        text = dumps(symbolic_report(K))
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[K]

    def test_report_tree_roundtrip_of_constant(self):
        report = symbolic_report(2)
        tree = report["c"]["tree"]
        assert tree["op"] == "div"
        num_terms = tree["numerator"]["terms"]
        assert num_terms == [
            {"op": "term", "coefficient": "1", "powers": {"a": 1, "b": 1, "k": 1}}
        ]
