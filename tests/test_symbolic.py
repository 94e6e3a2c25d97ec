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
from perturbrank import symbolic
from perturbrank.multipoly import MultiPoly
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


def _payloads(obj):
    """Every payload (a dict with a text and a tree) inside a report."""
    if isinstance(obj, dict) and "text" in obj and "tree" in obj:
        yield obj
    elif isinstance(obj, (dict, list)):
        for child in obj.values() if isinstance(obj, dict) else obj:
            yield from _payloads(child)


def laurent_names(st):
    """The variables of the structure's values: s = a + b*k in place of a."""
    return ("s", *st.variables[1:])


def var(st, name):
    return MultiPoly.variable(laurent_names(st), name)


def const(st, value):
    return MultiPoly.constant(laurent_names(st), value)


def rates(st):
    """a, b and k as values of the structure: a = s - b*k."""
    s, b, k = (var(st, name) for name in "sbk")
    return s - b * k, b, k


def at(f, values):
    """The value of a structure's value f at a point of (a, b, k, d...)."""
    return f.eval({**values, "s": values["a"] + values["b"] * values["k"]})


def closed_form_c(st):
    """a*b*k / (a + b*k)^3, with 1/s as the Laurent monomial s^-1."""
    a, b, k = rates(st)
    names = laurent_names(st)
    inv_s3 = MultiPoly._make(names, {(-3,) + (0,) * (len(names) - 1): 1})
    return a * b * k * inv_s3


def direct_construction(st):
    """Every velocity and every entry of M from its own Q G Pᵀ sum, as in
    ``build_M``, from the structure's kernel pair and G; the oracle for
    the renamed templates of ``build_M_parametric``."""
    d_vars = [
        tuple(var(st, f"d{i}_{m}") for m in (1, 2)) for i in range(1, st.K + 1)
    ]
    h1, h1_star = st.h1, st.h1_star
    weights = (h1[0] * h1_star[0], h1[1] * h1_star[1])
    velocities = [d1 * weights[0] + d2 * weights[1] for d1, d2 in d_vars]
    half = const(st, Fraction(1, 2))
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
        assert st.c == closed_form_c(st)

    def test_diagonal_entry_closed_form(self):
        st = build_M_parametric(2)
        delta = var(st, "d1_1") - var(st, "d1_2")
        assert st.M[0][0] == -(closed_form_c(st) * delta * delta)

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_renamed_entries_match_direct_construction(self, K):
        st = build_M_parametric(K)
        velocities, M = direct_construction(st)
        for i in range(K):
            assert st.velocities[i] == velocities[i], i
            for j in range(K):
                assert st.M[i][j] == M[i][j], (i, j)

    def test_conversions_do_not_grow_with_K(self, monkeypatch):
        # the report converts the templates v_0, M_00 and M_01 once, M_10
        # too when M_ji == M_ij is not verified, and each closed-form value
        # once: h1, h1_star, c, the K gaps and the eigenvalue
        converted = []
        real = symbolic._Fractions.convert

        def counted(self, f):
            converted.append(f)
            return real(self, f)

        monkeypatch.setattr(symbolic._Fractions, "convert", counted)
        for K in range(2, 7):
            converted.clear()
            symbolic_report(K)
            st = build_M_parametric(K)
            renamed = [f for row in st.M for f in row] + list(st.velocities)
            templates = [f for f in converted if f in renamed]
            assert templates == [st.M[0][0], st.M[0][1], st.velocities[0]]
            assert len(converted) == 3 + 6 + K
        monkeypatch.setattr(symbolic, "verify_rank_one_identity", lambda st: False)
        for K in range(2, 7):
            converted.clear()
            symbolic_report(K)
            assert len(converted) == 4 + 5 + K

    def test_renamed_values_share_the_template_denominator(self):
        # velocity 0 is the template of every velocity; every diagonal,
        # upper and lower entry of M is a renamed image of one template, so
        # the payloads of each group share one denominator tree
        for K in range(2, 7):
            for verified in (True, False):
                with pytest.MonkeyPatch.context() as mp:
                    if not verified:
                        mp.setattr(symbolic, "verify_rank_one_identity", lambda st: False)
                    report = symbolic_report(K)
                M = report["M"]
                groups = (
                    report["velocities"],
                    [M[i][i] for i in range(K)],
                    [M[i][j] for i in range(K) for j in range(i + 1, K)],
                    [M[j][i] for i in range(K) for j in range(i + 1, K)],
                )
                for group in groups:
                    den = group[0]["tree"]["denominator"]
                    assert all(p["tree"]["denominator"] is den for p in group), K

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    def test_renamed_payloads_match_each_value_converted(self, K, monkeypatch):
        # the report renames converted templates; converting every
        # velocity and entry on its own gives the same text and tree
        st = build_M_parametric(K)
        write = symbolic._Fractions(st.variables)
        own = [[write.payload(f) for f in row] for row in st.M]
        report = symbolic_report(K)
        assert report["velocities"] == [write.payload(f) for f in st.velocities]
        assert report["M"] == own
        monkeypatch.setattr(symbolic, "verify_rank_one_identity", lambda st: False)
        assert symbolic_report(K)["M"] == own

    def test_converted_values_match_their_laurent_form(self):
        # the numerator over b^i (a + b*k)^j that the report writes is the
        # value of the Laurent form at every point
        st = build_M_parametric(3)
        write = symbolic._Fractions(st.variables)
        values = [*st.h1, *st.h1_star, *st.velocities, st.c, *st.deltas, *st.G[0], *st.G[1]]
        values += [f for row in st.M for f in row]
        rng = random.Random(5)
        for f in values:
            num, (den, text, _) = write.convert(f)
            assert (text is None) == (den == MultiPoly.constant(st.variables, 1))
            for _ in range(3):
                point = random_values(rng, st.variables)
                assert num.eval(point) / den.eval(point) == at(f, point)

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
        a, b, k = rates(st)
        A = ((-a, b), (k * a, -(k * b)))
        G, h, hs = st.G, st.h1, st.h1_star
        zero, one = (const(st, v) for v in (0, 1))

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
        assert pairing == const(st, 1)

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    def test_rank_one_identity(self, K):
        assert verify_rank_one_identity(build_M_parametric(K))

    def test_identity_detects_mutation(self):
        st = build_M_parametric(2)
        one = const(st, 1)
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
        one = const(st, 1)
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
            assert isinstance(eigen_closed_form_n2(build_M_parametric(K)), MultiPoly)
            assert symbolic_report(K)["spectrum"]["zero_multiplicity"] == K - 1

    def test_unit_rates_give_eighth(self):
        # a = b = k = 1 makes c = 1/8; speeds (1,0),(0,1) give
        # sum of squared gaps 2, so the nonzero eigenvalue is -1/4
        eigenvalue = eigen_closed_form_n2(build_M_parametric(2))
        values = {"a": 1, "b": 1, "k": 1, "d1_1": 1, "d1_2": 0, "d2_1": 0, "d2_2": 1}
        assert at(eigenvalue, values) == Fraction(-1, 4)

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
                assert at(st.velocities[i], values) == v[i, 0]
                for j in range(K):
                    assert at(st.M[i][j], values) == ts.M[i, j]
            checked += 1

    def test_group_inverse_matches_numeric(self):
        st = build_M_parametric(2)
        rng = random.Random(78)
        for _ in range(25):
            values = random_values(rng, st.variables)
            sd = validate_system(numeric_counterpart(values, 2))
            for i in range(2):
                for j in range(2):
                    assert at(st.G[i][j], values) == sd.G[i, j]

    def test_kernel_pair_matches_numeric(self):
        st = build_M_parametric(2)
        rng = random.Random(77)
        for _ in range(25):
            values = random_values(rng, st.variables)
            spec = numeric_counterpart(values, 2)
            sd = validate_system(spec)
            for idx in range(2):
                assert at(st.h1[idx], values) == sd.h1[0, idx]
                assert at(st.h1_star[idx], values) == sd.h1_star[0, idx]


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
        one = const(st, 1)
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

    def test_each_payload_walks_its_numerator_once(self, monkeypatch):
        # text and tree of a payload come from one poly_tree of its
        # numerator, each distinct denominator is walked once, and no value
        # is printed through str
        walked, printed = [], []
        real_tree, real_str = symbolic.poly_tree, MultiPoly.__str__
        monkeypatch.setattr(symbolic, "poly_tree", lambda p: walked.append(p) or real_tree(p))
        monkeypatch.setattr(MultiPoly, "__str__", lambda p: printed.append(p) or real_str(p))
        for K in range(2, 7):
            walked.clear()
            report = symbolic_report(K)
            payloads = {id(p): p for p in _payloads(report)}
            dens = {id(p["tree"]["denominator"]) for p in payloads.values()}
            assert len(walked) == len(payloads) + len(dens), K
        assert printed == []

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
