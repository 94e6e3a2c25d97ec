from __future__ import annotations

import ast
import random
from fractions import Fraction
from math import gcd
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perturbrank
from perturbrank.exact_linalg import (
    CHARPOLY_SIZE_LIMIT,
    RationalMatrix,
    SizeLimitExceeded,
    _exact_div,
    _forward,
    _primitive_rows,
    _routh_column,
    as_rational,
    charpoly_adjugate,
    echelon_reduce,
    hurwitz_stable,
    inertia,
    nullspace,
    rank_exact,
)
from perturbrank.formats import load_instance_file
from perturbrank.model import FAMILIES, GeneratorConfig, generate_instance, validate_system

from common import W1

VIOLATION_PATH = Path(__file__).parent.parent / "instances" / "violation-n3-K1.json"

fractions_st = st.fractions(
    min_value=-9, max_value=9, max_denominator=7
)


def _entries(m: RationalMatrix) -> list[list[Fraction]]:
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def _rref_rank(m: RationalMatrix) -> int:
    # Independent oracle: plain rational Gaussian elimination, no Bareiss.
    rows = _entries(m)
    rank = 0
    for col in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(m.rows):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rational_det(rows: list[list[Fraction]]) -> Fraction:
    # Independent oracle: plain rational Gaussian elimination, no Bareiss.
    rows = [list(r) for r in rows]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, n):
            f = rows[i][col] / rows[col][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det


def _random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 6) -> RationalMatrix:
    return RationalMatrix(
        [
            [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def _coeffs(row: RationalMatrix) -> tuple[Fraction, ...]:
    # the entries of a 1 x m coefficient row
    return tuple(_entries(row)[0])


def _row(*entries) -> RationalMatrix:
    # ascending polynomial coefficients as the 1 x m row hurwitz_stable reads
    return RationalMatrix([entries])


def _horner(coeffs, x) -> Fraction:
    # the polynomial with these ascending coefficients, evaluated at x
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestAsRational:
    def test_parses_strings_and_ints(self):
        assert as_rational("3/4") == Fraction(3, 4)
        assert as_rational(-2) == Fraction(-2)
        assert as_rational(Fraction(1, 3)) == Fraction(1, 3)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.5)


class TestRationalMatrix:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RationalMatrix([])

    def test_matmul_identity(self):
        m = RationalMatrix([[1, 2], [3, 4]])
        assert m @ RationalMatrix.identity(2) == m

    def test_matmul_rejects_scalars_and_mismatched_shapes(self):
        m = RationalMatrix([[1, 2], [3, 4]])
        with pytest.raises(TypeError):
            m @ 3
        row = RationalMatrix([[1, 2]])
        with pytest.raises(ValueError) as exc:
            row @ row
        assert str(exc.value) == "cannot multiply 1x2 by 1x2"

    def test_transpose_involution(self):
        m = RationalMatrix([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m

    def test_diagonal_and_matvec(self):
        d = RationalMatrix([["1/2", 0], [0, 3]])
        assert d @ RationalMatrix([[2], [2]]) == RationalMatrix([[1], [6]])

    def test_outer(self):
        assert RationalMatrix([[1], [2]]) @ RationalMatrix([[3, 4]]) == RationalMatrix(
            [[3, 4], [6, 8]]
        )

    def test_scale_columns_and_sum_match_fraction_route(self):
        rng = random.Random(1409)
        for _ in range(200):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a, b = _random_matrix(rng, rows, cols), _random_matrix(rng, rows, cols)
            v = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(cols)]
            diag = RationalMatrix(
                [[v[i] if i == j else Fraction(0) for j in range(cols)] for i in range(cols)]
            )
            scaled = a.scale_columns(RationalMatrix([v]))
            assert scaled == a @ diag
            assert _entries(scaled) == [[x * c for x, c in zip(row, v)] for row in _entries(a)]
            total = a + b
            assert _entries(total) == [
                [x + y for x, y in zip(ra, rb)] for ra, rb in zip(_entries(a), _entries(b))
            ]
            for m in (scaled, total, total - b):
                assert m.den > 0
                assert gcd(m.den, *(x for row in m.num for x in row)) == 1
            assert total - b == a
            assert ((total - b).num, (total - b).den) == (a.num, a.den)
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2]]).scale_columns(RationalMatrix([[1]]))
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2]]) + RationalMatrix([[1], [2]])


    def test_sign_and_zero_free_match_the_entries(self):
        # the screens read the integer rows; the Fraction entries decide
        rng = random.Random(4101)
        seen = set()
        for _ in range(300):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = _random_matrix(rng, rows, cols).scale(rng.choice([1, -1, "-1/7"]))
            entries = _entries(m)
            assert m.zero_free() == all(x != 0 for row in entries for x in row)
            for i in range(rows):
                for j in range(cols):
                    x = entries[i][j]
                    assert m.sign(i, j) == (x > 0) - (x < 0)
                    seen.add(m.sign(i, j))
            seen.add(m.zero_free())
        assert seen == {-1, 0, 1, True, False}


class TestIntegerConstructor:
    """Rows of ints are taken over den = 1 as they stand; every other
    entry type goes through the rational route, with the same results
    and errors."""

    def test_int_rows_equal_fraction_rows(self):
        rng = random.Random(3401)
        for _ in range(200):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 6)
            bound = rng.choice([1, 9, 10**30])
            rows = [[rng.randint(-bound, bound) for _ in range(n_cols)] for _ in range(n_rows)]
            m = RationalMatrix(rows)
            for other in (
                RationalMatrix([[Fraction(x) for x in row] for row in rows]),
                RationalMatrix([[str(x) for x in row] for row in rows]),
                RationalMatrix(tuple(row) for row in rows),
            ):
                assert (other.num, other.den, hash(other)) == (m.num, m.den, hash(m))
            assert m.den == 1 and m.num == tuple(map(tuple, rows))
            assert (m.rows, m.cols) == (n_rows, n_cols)
            assert all(type(x) is int for row in m.num for x in row)

    def test_bool_entries_are_ints_in_the_rows(self):
        m = RationalMatrix([[True, False], [2, True]])
        assert m == RationalMatrix([[1, 0], [2, 1]])
        assert all(type(x) is int for row in m.num for x in row)
        assert repr(m) == "RationalMatrix[1 0; 2 1]"

    def test_mixed_entries_keep_their_denominators(self):
        m = RationalMatrix([[1, "1/2"], [Fraction(2, 3), 0]])
        assert (m.num, m.den) == (((6, 3), (4, 0)), 6)

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            ([], ValueError, "matrix must have at least one row and column"),
            ([[]], ValueError, "matrix must have at least one row and column"),
            ([[], [1]], ValueError, "matrix must have at least one row and column"),
            ([[1, 2], [3]], ValueError, "ragged rows"),
            ([[1], [2, 3]], ValueError, "ragged rows"),
            ([[1], []], ValueError, "ragged rows"),
            ([["1/2", 2], [3]], ValueError, "ragged rows"),
            ([[1.5], [1, 2]], TypeError, "not an exact rational: 1.5"),
            ([[1, 2.0]], TypeError, "not an exact rational: 2.0"),
            ([[1, None]], TypeError, "not an exact rational: None"),
        ],
        ids=["empty", "empty-row", "empty-first-row", "ragged-int", "ragged-int-long",
             "ragged-int-empty", "ragged-mixed", "float-before-ragged", "float", "none"],
    )
    def test_errors(self, rows, error, message):
        with pytest.raises(error) as exc:
            RationalMatrix(rows)
        assert str(exc.value) == message


class TestCanonicalForm:
    """Integer rows over one denominator, reduced: den > 0 and
    gcd(den, *num) == 1, so equal values have equal fields."""

    def test_same_value_same_form(self):
        rng = random.Random(7)

        def entry():
            if rng.random() < 0.2:
                return Fraction(0)
            return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

        for _ in range(200):
            n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 6)
            rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
            m = RationalMatrix(rows)
            scale = rng.choice([-3, -1, 2, 6])
            same = [
                m,
                RationalMatrix([[str(x) for x in row] for row in rows]),
                m.transpose().transpose(),
                RationalMatrix._make(m.num, m.den),
                RationalMatrix._make([[scale * x for x in row] for row in m.num], scale * m.den),
            ]
            for other in same:
                assert other.den > 0
                assert gcd(other.den, *(x for row in other.num for x in row)) == 1
                assert other == m and hash(other) == hash(m)
                assert other.num == m.num and other.den == m.den
                assert _entries(other) == rows
                assert other.to_float() == [[float(x) for x in row] for row in rows]
            # what the elimination receives: each row as a primitive
            # integer vector, a positive multiple of the rational row
            for row, prim in zip(rows, _primitive_rows(m.num)):
                assert gcd(*prim) in (0, 1)
                j = next((j for j, x in enumerate(row) if x), None)
                factor = 1 if j is None else Fraction(prim[j], row[j])
                assert factor > 0 and prim == [factor * x for x in row]
            if any(x for row in rows for x in row):
                shifted = [[x + 1 for x in row] for row in rows]
                assert RationalMatrix(shifted) != m

    def test_integer_and_zero_matrices(self):
        assert RationalMatrix([[4, -6], [2, 0]]).den == 1
        zero = RationalMatrix._make([[0, 0]], -5)
        assert (zero.num, zero.den) == (((0, 0),), 1)
        assert zero == RationalMatrix([["0/3", 0]])


def test_no_module_reads_how_exact_numbers_are_held():
    # num, den and _make belong to exact_linalg; multipoly's MultiPoly
    # owns attributes of the same names
    leaks = []
    for path in sorted(Path(perturbrank.__file__).parent.glob("*.py")):
        if path.stem in ("exact_linalg", "multipoly"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("num", "den", "_make"):
                leaks.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert leaks == []


def test_tolerances_are_read_only_in_asymptotics():
    # one definition of rank agreement; __init__ only re-exports the name
    # through its import
    names = {"RANK_AGREEMENT_TOLERANCE"}
    uses = []
    for path in sorted(Path(perturbrank.__file__).parent.glob("*.py")):
        if path.stem == "asymptotics":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias) and path.stem != "__init__":
                name = node.name
            else:
                continue
            if name in names:
                uses.append(f"{path.name}: {name}")
    assert uses == []


def test_no_module_imports_private_names_from_exact_linalg():
    # how exact numbers are held is exact_linalg's decision alone
    leaks = []
    for path in sorted(Path(perturbrank.__file__).parent.glob("*.py")):
        if path.stem == "exact_linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "exact_linalg"
            ):
                leaks += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert leaks == []


class TestRank:
    def test_rank_one_difference_matrix(self):
        m = RationalMatrix([["-1/8", "1/8"], ["1/8", "-1/8"]])
        assert rank_exact(m) == 1

    def test_identity_rank(self):
        assert rank_exact(RationalMatrix.identity(3)) == 3

    def test_zero_matrix(self):
        assert rank_exact(RationalMatrix([[0] * 5, [0] * 5])) == 0

    def test_near_dependent_rows_are_independent(self):
        # Rows differ by 1e-12-ish rationally; exact arithmetic must see rank 2.
        m = RationalMatrix([[1, 1], [1, Fraction(10**12 + 1, 10**12)]])
        assert rank_exact(m) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rank_equals_transpose_rank_and_rref(self, data):
        rows = data.draw(st.integers(1, 5))
        cols = data.draw(st.integers(1, 5))
        entries = data.draw(
            st.lists(
                st.lists(fractions_st, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
        m = RationalMatrix(entries)
        r = rank_exact(m)
        assert r == rank_exact(m.transpose())
        assert r == _rref_rank(m)

    def test_rank_of_low_rank_products(self):
        rng = random.Random(7123)
        for _ in range(40):
            n = rng.randint(2, 6)
            r = rng.randint(1, n - 1)
            left = _random_matrix(rng, n, r)
            right = _random_matrix(rng, r, n)
            prod = left @ right
            assert rank_exact(prod) == _rref_rank(prod)
            assert rank_exact(prod) <= r


# The Gauss-Jordan loop and kernel of the package before nullspace
# back-substituted on the forward rows, verbatim: the oracle for the
# forward kernel, the determinant and the kernel basis.
def _eliminate(a: list[list[int]]) -> tuple[list[int], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place,
    for ``nullspace``, which reads the reduced form.

    Pivots are the first nonzero entry in the current column; each step
    updates every other row as (p·row - f·pivot_row) / previous pivot,
    a division that is exact (Bareiss, Math. Comp. 1968).  Returns the
    pivot columns, the pivot values and the number of row swaps.  After
    it, row k holds the last pivot value d in pivot column k and zero in
    every other pivot column, so rows / d is the reduced row echelon
    form; without swaps, the k-th pivot value is the k-th leading
    principal minor of the input rows.
    """
    n_rows = len(a)
    pivot_cols: list[int] = []
    pivot_vals: list[int] = []
    swaps = 0
    prev = 1
    for col in range(len(a[0])):
        k = len(pivot_cols)
        if k == n_rows:
            break
        pivot_row = next((r for r in range(k, n_rows) if a[r][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            swaps += 1
        top = a[k]
        p = top[col]
        for r in range(n_rows):
            if r != k:
                f = a[r][col]
                # a pair of zeros updates to zero; skip its division
                a[r] = [
                    _exact_div(p * x - f * y, prev) if x or y else 0
                    for x, y in zip(a[r], top)
                ]
        pivot_cols.append(col)
        pivot_vals.append(p)
        prev = p
    return pivot_cols, pivot_vals, swaps


def _gauss_jordan_pivots(rows) -> tuple[list[int], list[int], int]:
    return _eliminate([list(row) for row in rows])


def _gauss_jordan_nullspace(m: RationalMatrix) -> list[RationalMatrix]:
    a = _primitive_rows(m.num)
    pivot_cols, pivot_vals, _ = _eliminate(a)
    d = pivot_vals[-1] if pivot_vals else 1
    basis: list[RationalMatrix] = []
    for free in sorted(set(range(m.cols)) - set(pivot_cols)):
        # d·v with v the RREF kernel vector of this free column
        v = [0] * m.cols
        v[free] = d
        for row, pc in zip(a, pivot_cols):
            v[pc] = -row[free]
        basis.append(RationalMatrix._make((v,), next(x for x in v if x != 0)))
    return basis


# hurwitz_stable before it read the fraction-free Routh rows, verbatim:
# the oracle for the Routh column, one forward elimination of the whole
# n x n Hurwitz matrix.
def _bareiss_hurwitz_stable(coeffs: RationalMatrix) -> bool:
    """True iff every root of the polynomial whose ascending coefficients
    are the ``1 x m`` row ``coeffs`` has strictly negative real part.

    Trailing zero coefficients are dropped; ``ValueError`` is raised
    when nothing is left.  Classical Hurwitz-determinant criterion,
    evaluated exactly: after normalizing the leading coefficient
    positive, all leading principal minors of the Hurwitz matrix must be
    strictly positive.  One forward fraction-free elimination of the
    Hurwitz matrix gives them all as its pivots, so the test is: no row swap,
    n pivots, every pivot positive.  A nonzero constant has no roots and
    counts as stable.
    """
    if coeffs.rows != 1:
        raise ValueError(f"{coeffs.rows}x{coeffs.cols} coefficients, expected one row")
    # the integer row is a positive multiple of the polynomial
    desc = coeffs.num[0][::-1]
    lead = next((i for i, c in enumerate(desc) if c), None)
    if lead is None:
        raise ValueError("the zero polynomial has no stability verdict")
    desc = desc[lead:]
    n = len(desc) - 1
    if n == 0:
        return True
    if desc[0] < 0:
        desc = [-c for c in desc]  # desc[0] > 0 leads
    hurwitz = [
        [desc[2 * j - i + 1] if 0 <= 2 * j - i + 1 <= n else 0 for j in range(n)]
        for i in range(n)
    ]
    pivot_cols, pivot_vals, swaps = _forward(hurwitz)
    return swaps == 0 and len(pivot_cols) == n and all(v > 0 for v in pivot_vals)


def _hurwitz_matrix(desc) -> list[list[int]]:
    """The n x n Hurwitz matrix of the descending coefficients ``desc``,
    as the oracle above builds it."""
    n = len(desc) - 1
    return [
        [desc[2 * j - i + 1] if 0 <= 2 * j - i + 1 <= n else 0 for j in range(n)]
        for i in range(n)
    ]


class TestForward:
    """The forward kernel that rank, kernels and Hurwitz read gives the
    pivot columns, values and swaps of the Gauss-Jordan elimination."""

    @staticmethod
    def _matrices(rng: random.Random):
        for case in range(240):
            n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
            bound = 10**40 if case % 4 == 3 else rng.choice([1, 3, 9])
            rows = [[rng.randint(-bound, bound) for _ in range(n_cols)] for _ in range(n_rows)]
            if case % 4 == 1 and n_rows > 1:
                # rank-deficient: rows that are integer combinations of others
                keep = rng.randint(1, n_rows - 1)
                for i in range(keep, n_rows):
                    w = [rng.randint(-2, 2) for _ in range(keep)]
                    rows[i] = [sum(a * r[j] for a, r in zip(w, rows)) for j in range(n_cols)]
            if case % 4 == 2:
                # zero leading entries: a swap, or a column with no pivot
                for i in range(rng.randint(1, n_rows)):
                    rows[i][0] = 0
                if n_cols > 1 and rng.random() < 0.5:
                    for row in rows:
                        row[1] = 0
            yield rows

    def test_matches_gauss_jordan_on_integer_matrices(self):
        rng = random.Random(15)
        kinds = {"swaps": 0, "deficient": 0, "large": 0}
        for rows in self._matrices(rng):
            expected = _gauss_jordan_pivots(rows)
            assert _forward([list(row) for row in rows]) == expected, rows
            pivot_cols, _, swaps = expected
            kinds["swaps"] += swaps > 0
            kinds["deficient"] += len(pivot_cols) < min(len(rows), len(rows[0]))
            kinds["large"] += max(abs(x) for row in rows for x in row) > 10**30
        assert min(kinds.values()) >= 30, kinds

    def test_matches_gauss_jordan_on_hurwitz_and_rank_inputs(self, monkeypatch):
        # the Hurwitz matrices of the deflated charpoly rows of generated
        # instances, and the P and M whose ranks analyze reads
        import perturbrank.exact_linalg as exact_linalg
        from perturbrank.asymptotics import build_M

        cases = []
        for family in FAMILIES:
            for n in range(2, 9):
                for seed in range(3):
                    s, sd = generate_instance(GeneratorConfig(n=n, K=n, seed=seed, family=family))
                    ts = build_M(s, sd)
                    cases.append((charpoly_adjugate(s.A)[0].columns(1), ts.P, ts.M))
        pivots = []

        def checked(a):
            expected = _gauss_jordan_pivots(a)
            result = forward(a)
            assert result == expected
            pivots.append(len(result[0]))
            return result

        forward = exact_linalg._forward
        monkeypatch.setattr(exact_linalg, "_forward", checked)
        for coeffs, p, m in cases:
            # hurwitz_stable reads the Routh rows and runs no elimination;
            # the Hurwitz matrix its oracle eliminates is checked directly
            assert hurwitz_stable(coeffs)
            checked(_hurwitz_matrix(coeffs.num[0][::-1]))
            assert rank_exact(p) == p.rows - len(nullspace(p.transpose()))
            assert rank_exact(m) == m.cols - len(nullspace(m))
        assert len(pivots) == 5 * len(cases) == 5 * 42

    def test_rank_hurwitz_and_kernel_run_one_forward_pass(self, monkeypatch):
        import perturbrank.exact_linalg as exact_linalg

        calls = []

        def recorded(a, **mode):
            calls.append(a)
            return original(a, **mode)

        original = exact_linalg._forward
        monkeypatch.setattr(exact_linalg, "_forward", recorded)
        rng = random.Random(34)
        for _ in range(50):
            m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            sym = m @ m.transpose() - RationalMatrix.identity(m.rows).scale(rng.randint(0, 9))
            coeffs = charpoly_adjugate(_random_matrix(rng, 3, 3))[0]
            # hurwitz_stable reads the Routh rows: no elimination at all
            for run, arg, passes in (
                (rank_exact, m, 1), (hurwitz_stable, coeffs, 0), (nullspace, m, 1), (inertia, sym, 1)
            ):
                calls.clear()
                run(arg)
                assert len(calls) == passes, run.__name__


class TestEchelonReduce:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_grows_the_rank_one_row_at_a_time(self, data):
        cols = data.draw(st.integers(1, 6))
        small = st.integers(-3, 3)
        rows: list[list[int]] = []
        for _ in range(data.draw(st.integers(1, 8))):
            if rows and data.draw(st.booleans()):
                # an integer combination of earlier rows: never a new rank
                weights = data.draw(st.lists(small, min_size=len(rows), max_size=len(rows)))
                rows.append([sum(w * r[j] for w, r in zip(weights, rows)) for j in range(cols)])
            else:
                rows.append(data.draw(st.lists(small, min_size=cols, max_size=cols)))
        echelon: list[list[int]] = []
        for k, row in enumerate(rows):
            residual = echelon_reduce(echelon, row)
            grows = rank_exact(RationalMatrix(rows[: k + 1])) > len(echelon)
            assert any(residual) == grows
            if grows:
                assert gcd(*residual) == 1
                for e in echelon:  # zero at every earlier leading column
                    assert residual[next(j for j, x in enumerate(e) if x)] == 0
                echelon.append(residual)
        assert len(echelon) == rank_exact(RationalMatrix(rows))


def _pivot_det(m: RationalMatrix) -> Fraction:
    # the determinant as the fraction-free elimination leaves it: the last
    # pivot of the rows over one denominator d, signed by the swaps, over d^n
    _, pivot_vals, swaps = _eliminate([list(r) for r in m.num])
    d = m.den
    if len(pivot_vals) < m.rows:
        return Fraction(0)
    return Fraction((-1) ** swaps * pivot_vals[-1], d**m.rows)


class TestDeterminant:
    """The Bareiss pivots are minors: the last one gives the determinant,
    and without swaps the k-th is the k-th leading principal minor, which
    is what ``hurwitz_stable`` reads."""

    def test_row_swap_and_denominators(self):
        m = RationalMatrix([[0, "1/2"], ["1/3", 0]])
        assert _pivot_det(m) == Fraction(-1, 6)

    def test_three_by_three_with_swap(self):
        m = RationalMatrix([[0, 2, 1], ["1/2", 1, 0], [1, 0, "1/3"]])
        assert _pivot_det(m) == _rational_det(_entries(m))
        assert _pivot_det(m) == Fraction(-4, 3)

    def test_singular(self):
        assert _pivot_det(RationalMatrix([[1, "1/2"], [2, 1]])) == 0
        assert _pivot_det(RationalMatrix([[0, 1], [0, 2]])) == 0

    def test_one_by_one(self):
        assert _pivot_det(RationalMatrix([["-3/4"]])) == Fraction(-3, 4)
        assert _pivot_det(RationalMatrix([[0]])) == 0

    def test_agrees_with_rational_elimination(self):
        rng = random.Random(6167)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = _random_matrix(rng, n, n, bound=4)
            if rng.random() < 0.3:  # force a zero leading entry
                m = RationalMatrix([[0] + _entries(m)[0][1:]] + _entries(m)[1:])
            assert _pivot_det(m) == _rational_det(_entries(m))
            _, pivot_vals, swaps = _eliminate([list(r) for r in m.num])
            d = m.den
            if swaps == 0:
                for k, p in enumerate(pivot_vals, start=1):
                    minor = _rational_det([r[:k] for r in _entries(m)[:k]])
                    assert Fraction(p, d**k) == minor


class TestNullspace:
    def test_kernel_of_difference_matrix(self):
        m = RationalMatrix([[-1, 1], [1, -1]])
        assert nullspace(m) == [RationalMatrix([[1, 1]])]

    def test_left_kernel(self):
        m = RationalMatrix([[-2, 1], [2, -1]])
        assert nullspace(m.transpose()) == [RationalMatrix([[1, 1]])]
        assert nullspace(m) == [RationalMatrix([[1, 2]])]

    def test_invertible_matrix_has_trivial_kernel(self):
        assert nullspace(RationalMatrix([[2, 1], [1, 1]])) == []

    def test_basis_annihilates_and_spans(self):
        rng = random.Random(90211)
        for _ in range(50):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = _random_matrix(rng, rows, cols)
            basis = nullspace(m)
            assert len(basis) == cols - rank_exact(m)
            for v in basis:
                assert (v.rows, v.cols) == (1, cols)
                assert m @ v.transpose() == RationalMatrix([[0]] * rows)
                lead = next(x for x in _entries(v)[0] if x != 0)
                assert lead == 1

    def test_basis_matches_gauss_jordan_on_generated_M(self):
        # the back substitution gives the reduced-echelon kernel vector of
        # each free column, which is unique: the old basis, row for row
        from perturbrank.asymptotics import build_M

        kernels = 0
        for family in FAMILIES:
            for n in range(2, 9):
                for k in range(2, 9):
                    for seed in range(4):
                        cfg = GeneratorConfig(n=n, K=k, seed=seed, family=family)
                        m = build_M(*generate_instance(cfg)).M
                        basis = nullspace(m)
                        assert basis == _gauss_jordan_nullspace(m), cfg
                        kernels += bool(basis)
        assert kernels >= 150

    def test_basis_matches_gauss_jordan_on_low_rank_products(self):
        # integer L R products, up to 8 x 9, and their transposes (left
        # kernels): rank-deficient, full column rank, 10^40 entries, zero columns
        rng = random.Random(37)
        kinds = {"deficient": 0, "full": 0, "large": 0, "zero column": 0}
        for case in range(400):
            n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 9)
            inner = rng.randint(1, min(n_rows, n_cols))
            if case % 5 == 0:
                n_cols = min(n_cols, 8)
                n_rows, inner = rng.randint(n_cols, 8), n_cols
            bound = 10**40 if case % 4 == 3 else rng.choice([1, 3, 9])
            left = [[rng.randint(-bound, bound) for _ in range(inner)] for _ in range(n_rows)]
            right = [[rng.randint(-bound, bound) for _ in range(n_cols)] for _ in range(inner)]
            if case % 4 == 2:
                zero = rng.randrange(n_cols)
                for row in right:
                    row[zero] = 0
            m = RationalMatrix([[sum(map(mul, row, col)) for col in zip(*right)] for row in left])
            for a in (m, m.transpose()):
                assert nullspace(a) == _gauss_jordan_nullspace(a), a
            rank = rank_exact(m)
            kinds["deficient"] += rank < min(n_rows, n_cols)
            kinds["full"] += rank == n_cols
            kinds["large"] += bound > 10**30
            kinds["zero column"] += any(not any(col) for col in zip(*m.num))
        assert min(kinds.values()) >= 30, kinds

    def test_tampered_echelon_entry_fails_the_exactness_check(self, monkeypatch):
        import perturbrank.exact_linalg as exact_linalg

        m = RationalMatrix([[2, 1, 1], [0, 3, 1]])
        assert nullspace(m) == _gauss_jordan_nullspace(m) == [RationalMatrix([[1, 1, -3]])]

        def tampered(a):
            result = forward(a)
            assert a[1][1:] == [6, 2]  # the final entries of the second echelon row
            a[1][2] -= 1
            return result

        forward = exact_linalg._forward
        monkeypatch.setattr(exact_linalg, "_forward", tampered)
        with pytest.raises(ArithmeticError, match="^fraction-free step produced a non-integer$"):
            nullspace(m)


def _rref_inverse(m: RationalMatrix) -> RationalMatrix:
    # Independent oracle: plain rational Gauss-Jordan on [m | I], no Bareiss.
    n = m.rows
    rows = [r + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(_entries(m))]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = Fraction(1) / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return RationalMatrix(r[n:] for r in rows)


class TestInverse:
    """The third item of the charpoly pass inverts a nonsingular m."""

    def test_round_trip(self):
        rng = random.Random(33)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = _random_matrix(rng, n, n, bound=5)
            if rank_exact(m) < n:
                continue
            eye = RationalMatrix.identity(n)
            inv = charpoly_adjugate(m)[2]
            assert m @ inv == inv @ m == eye
            assert inv == _rref_inverse(m)

    def test_is_adjugate_over_determinant(self):
        rng = random.Random(808)
        for n in range(1, 9):
            for _ in range(6):
                m = _random_matrix(rng, n, n, bound=7)
                coeffs, adj, inv = charpoly_adjugate(m)
                det = (-1) ** n * coeffs[0, 0]
                assert det == _rational_det(_entries(m))
                if det == 0:
                    continue
                assert inv == RationalMatrix(
                    [[adj[i, j] / det for j in range(n)] for i in range(n)]
                )
                assert m @ inv == RationalMatrix.identity(n)

    def test_singular_is_not_inverted(self):
        # a singular m has a zero constant coefficient; with a simple zero
        # root the third item is its group inverse, which inverts nothing
        m = RationalMatrix([[1, 1], [1, 1]])
        coeffs, _, g = charpoly_adjugate(m)
        assert coeffs[0, 0] == 0
        assert g == RationalMatrix([["1/4", "1/4"], ["1/4", "1/4"]])
        assert m @ g != RationalMatrix.identity(2)

    def test_first_pivot_needs_a_swap(self):
        m = RationalMatrix([[0, 2, 1], ["1/2", 1, 0], [1, 0, "1/3"]])
        inv = charpoly_adjugate(m)[2]
        assert m @ inv == RationalMatrix.identity(3)
        assert inv @ m == RationalMatrix.identity(3)
        swap = RationalMatrix([[0, "1/2"], ["1/3", 0]])
        assert charpoly_adjugate(swap)[2] == RationalMatrix([[0, 3], [2, 0]])


class TestGroupInverse:
    """At a simple zero root the third item is the group inverse: the one
    g with m g m = m, g m g = g and m g = g m."""

    def test_defining_equations_on_rank_deficient_matrices(self):
        # m = X Y with inner width n - 1 has rank n - 1, and zero is a simple
        # root unless Y X is singular; inner width n - 2 makes it a multiple root
        rng = random.Random(4711)
        simple = multiple = 0
        for trial in range(300):
            n = rng.randint(2, 8)
            r = n - 1 - (trial % 5 == 0)
            if r:
                m = _random_matrix(rng, n, r, bound=5) @ _random_matrix(rng, r, n, bound=5)
            else:
                m = RationalMatrix([[0] * n] * n)
            coeffs, _, g = charpoly_adjugate(m)
            assert coeffs[0, 0] == 0
            if coeffs[0, 1] == 0:
                assert g is None
                multiple += 1
                continue
            assert m @ g @ m == m
            assert g @ m @ g == g
            assert m @ g == g @ m
            simple += 1
        assert simple > 200 and multiple >= 60

    def test_one_by_one_zero(self):
        assert charpoly_adjugate(RationalMatrix([[0]]))[2] == RationalMatrix([[0]])

    def test_multiple_zero_root_gives_none(self):
        for m in (
            RationalMatrix([[0, 1], [0, 0]]),  # defective
            RationalMatrix([[0, 0, 0], [0, 0, 0], [0, 0, -1]]),  # semisimple, double
            RationalMatrix([[0] * 3] * 3),
            RationalMatrix([["1/2", "1/2"], ["-1/2", "-1/2"]]),  # nilpotent
        ):
            coeffs, _, g = charpoly_adjugate(m)
            assert _coeffs(coeffs)[:2] == (0, 0)
            assert g is None


def _cofactor_adjugate(m: RationalMatrix) -> RationalMatrix:
    # Independent oracle: adj[i][j] = (-1)^(i+j) det(m without row j, column i).
    rows = _entries(m)
    n = m.rows
    return RationalMatrix(
        [
            (-1) ** (i + j)
            * _rational_det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    )


def _assert_charpoly_matches_det(m: RationalMatrix) -> None:
    # Second route: det(λI - m) by elimination at n + 1 distinct λ fixes a
    # polynomial of degree n.
    n = m.rows
    p = _coeffs(charpoly_adjugate(m)[0])
    assert len(p) == n + 1 and p[-1] == 1
    for j in range(n + 1):
        lam = Fraction(2 * j - n, 3)
        shifted = RationalMatrix(
            [[(lam if i == k else 0) - m[i, k] for k in range(n)] for i in range(n)]
        )
        assert _horner(p, lam) == _rational_det(_entries(shifted)), (m, lam)


def _full_product_charpoly(m: RationalMatrix):
    """Faddeev-LeVerrier with every product B·N_k formed in full, the
    last one too: the reference for the trace-only last step."""
    n = m.rows
    b, d = m.num, m.den
    c = [1]
    bk = [list(row) for row in b]
    prev, adj = [[0] * n for _ in range(n)], RationalMatrix.identity(n).num
    for k in range(1, n + 1):
        trace = -sum(bk[i][i] for i in range(n))
        assert trace % k == 0
        c.append(trace // k)
        if k < n:
            for i in range(n):
                bk[i][i] += c[k]
            prev, adj = adj, bk
            cols = list(zip(*bk))
            bk = [[sum(map(mul, row, col)) for col in cols] for row in b]
    coeffs = RationalMatrix._make(
        [[ck * d ** (n - k) for k, ck in reversed(list(enumerate(c)))]], d**n
    )
    a1, a2 = c[n - 1], c[n - 2] if n > 1 else 0
    if c[n]:
        inverse = RationalMatrix._make([[-d * x for x in row] for row in adj], c[n])
    elif a1:
        inverse = RationalMatrix._make(
            [[d * (a2 * x - a1 * y) for x, y in zip(r0, r1)] for r0, r1 in zip(adj, prev)],
            a1 * a1,
        )
    else:
        inverse = None
    return coeffs, RationalMatrix._make(adj, (-d) ** (n - 1)), inverse


class TestCharpoly:
    def test_denominators_enter_per_power(self):
        m = RationalMatrix([["1/2", "1/3"], ["1/5", "1/7"]])
        assert _coeffs(charpoly_adjugate(m)[0]) == (
            Fraction(1, 210),
            Fraction(-9, 14),
            Fraction(1),
        )
        # one 1 x (n + 1) row over the common denominator d^n
        assert charpoly_adjugate(m)[0] == RationalMatrix([["1/210", "-9/14", 1]])

    def test_agrees_with_shifted_determinants(self):
        rng = random.Random(5023)
        for _ in range(200):
            n = rng.randint(1, 8)
            _assert_charpoly_matches_det(_random_matrix(rng, n, n, bound=9))

    def test_generated_instances_agree_with_shifted_determinants(self):
        for family in FAMILIES:
            for seed in range(4):
                s, _ = generate_instance(GeneratorConfig(n=8, K=2, seed=seed, family=family))
                _assert_charpoly_matches_det(s.A)

    def test_symmetric_exchange_generator(self):
        m = RationalMatrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
        p = _coeffs(charpoly_adjugate(m)[0])
        assert p == (Fraction(0), Fraction(9), Fraction(6), Fraction(1))
        assert _horner(p, -3) == 0 and _horner(p, Fraction(1, 2)) == Fraction(49, 8)

    def test_two_state(self):
        p = _coeffs(charpoly_adjugate(RationalMatrix([[-1, 1], [1, -1]]))[0])
        assert p == (Fraction(0), Fraction(2), Fraction(1))

    def test_identity(self):
        p = _coeffs(charpoly_adjugate(RationalMatrix.identity(2))[0])
        assert p == (Fraction(1), Fraction(-2), Fraction(1))

    def test_constant_term_is_signed_determinant(self):
        rng = random.Random(404)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = _random_matrix(rng, n, n)
            p = _coeffs(charpoly_adjugate(m)[0])
            constant = _horner(p, 0)
            assert constant == (-1) ** n * _rational_det(_entries(m))

    def test_similarity_invariance(self):
        rng = random.Random(88)
        m = _random_matrix(rng, 4, 4)
        while True:
            t = _random_matrix(rng, 4, 4, bound=3)
            if rank_exact(t) == 4:
                break
        conj = t @ m @ _rref_inverse(t)
        assert charpoly_adjugate(conj)[0] == charpoly_adjugate(m)[0]

    def test_adjugate_times_matrix_is_determinant(self):
        # m adj = adj m = det I with det = (-1)^n c_0, and adj equals the
        # cofactor matrix of plain rational elimination; the rank of adj is
        # n, 1 or 0 as m has rank n, n - 1 or less.
        rng = random.Random(6121)
        adjugate_ranks = {"full": 0, "one": 0, "zero": 0}
        for trial in range(240):
            n = rng.randint(1, 8)
            r = n - trial % 3  # full, n - 1 and n - 2 factor widths
            if r >= 1:
                m = _random_matrix(rng, n, r, bound=7) @ _random_matrix(rng, r, n, bound=7)
            else:
                m = RationalMatrix([[0] * n] * n)
            coeffs, adj, _ = charpoly_adjugate(m)
            det = (-1) ** n * coeffs[0, 0]
            scalar = RationalMatrix([[det if i == j else 0 for j in range(n)] for i in range(n)])
            assert m @ adj == adj @ m == scalar
            if n <= 5:
                assert adj == _cofactor_adjugate(m)
            rank = rank_exact(m)
            if rank == n:
                assert rank_exact(adj) == n
                adjugate_ranks["full"] += 1
            elif rank == n - 1:
                assert rank_exact(adj) == 1
                adjugate_ranks["one"] += 1
            else:
                assert adj == RationalMatrix([[0] * n] * n)
                adjugate_ranks["zero"] += 1
        assert min(adjugate_ranks.values()) > 40

    def test_adjugate_small_cases(self):
        assert charpoly_adjugate(RationalMatrix([["3/4"]])) == (
            RationalMatrix([["-3/4", 1]]),
            RationalMatrix([[1]]),
            RationalMatrix([["4/3"]]),
        )
        # adj [[a, b], [c, d]] = [[d, -b], [-c, a]]
        _, adj, _ = charpoly_adjugate(RationalMatrix([["1/2", "1/3"], ["1/5", "1/7"]]))
        assert adj == RationalMatrix([["1/7", "-1/3"], ["-1/5", "1/2"]])
        # a simple zero root: adj = α h1 h1_starᵀ with α = tr adj = c_1
        _, adj, _ = charpoly_adjugate(RationalMatrix([[-2, 1, 1], [1, -2, 1], [1, 1, -2]]))
        assert adj == RationalMatrix([[3] * 3] * 3)

    def test_equals_full_product_recurrence(self):
        # the trace-only last step against the recurrence that forms every
        # product B·N_k in full, field by field: full rank, a simple zero
        # root (group inverse), rank n - 2 and less (no third item), n = 1
        rng = random.Random(7331)
        cases = [RationalMatrix([[0]]), RationalMatrix([["-5/3"]]), RationalMatrix([[0, 1], [0, 0]])]
        for trial in range(240):
            n = rng.randint(1, 8)
            r = n - trial % 4 if trial % 4 < 3 else 0
            if r >= 1:
                m = _random_matrix(rng, n, r, bound=7) @ _random_matrix(rng, r, n, bound=7)
            else:
                m = RationalMatrix([[0] * n] * n)
            cases.append(m)
        for family in FAMILIES:
            for n in range(2, 9):
                cases.append(generate_instance(GeneratorConfig(n=n, K=2, seed=n, family=family))[0].A)
        inverses = {"inverse": 0, "group": 0, "none": 0}
        for m in cases:
            got, expected = charpoly_adjugate(m), _full_product_charpoly(m)
            assert [None if x is None else (x.num, x.den) for x in got] == [
                None if x is None else (x.num, x.den) for x in expected
            ]
            kind = "none" if got[2] is None else "inverse" if got[0][0, 0] else "group"
            inverses[kind] += 1
        assert len(cases) >= 200 and min(inverses.values()) >= 40

    def test_size_guard(self):
        big = RationalMatrix.identity(CHARPOLY_SIZE_LIMIT + 1)
        with pytest.raises(SizeLimitExceeded):
            charpoly_adjugate(big)

    def test_non_square(self):
        with pytest.raises(ValueError):
            charpoly_adjugate(RationalMatrix([[0, 0, 0], [0, 0, 0]]))


class TestHurwitz:
    def test_double_root_at_minus_three(self):
        assert hurwitz_stable(_row(9, 6, 1)) is True

    def test_root_at_zero(self):
        assert hurwitz_stable(_row(0, 2, 1)) is False

    def test_right_half_plane_pair(self):
        assert hurwitz_stable(_row(1, -1, 1)) is False

    def test_pure_imaginary_pair(self):
        assert hurwitz_stable(_row(1, 0, 1)) is False

    def test_negative_leading_coefficient_normalized(self):
        # -(x+1)(x+2) has the same roots as (x+1)(x+2)
        assert hurwitz_stable(_row(-2, -3, -1)) is True

    def test_nonzero_constant_is_stable(self):
        assert hurwitz_stable(_row(5)) is True

    def test_zero_polynomial_raises(self):
        # an empty coefficient list is no 1 x m row
        with pytest.raises(ValueError, match="at least one row and column"):
            hurwitz_stable(_row())

    def test_coefficients_are_one_row(self):
        with pytest.raises(ValueError, match="expected one row"):
            hurwitz_stable(RationalMatrix([[1], [2]]))

    def test_trailing_zeros_are_dropped(self):
        assert hurwitz_stable(_row(1, 2, 0, 0)) == hurwitz_stable(_row(1, 2)) is True
        assert hurwitz_stable(_row(Fraction(1, 2), 0, 1, 0)) == hurwitz_stable(_row(1, 0, 2))
        assert hurwitz_stable(_row(-3, Fraction(0))) is True

    def test_all_zero_coefficients_raise(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            hurwitz_stable(_row(0, 0))
        with pytest.raises(ValueError, match="zero polynomial"):
            hurwitz_stable(_row(Fraction(0)))

    def test_positive_coefficients_with_vanishing_minor(self):
        # x³ + x² + x + 1 = (x + 1)(x² + 1): roots ±i, Δ2 = 0
        assert hurwitz_stable(_row(1, 1, 1, 1)) is False

    def test_positive_coefficients_with_negative_minor(self):
        # x³ + x² + x + 2: Δ2 = 1·1 - 1·2 = -1
        assert hurwitz_stable(_row(2, 1, 1, 1)) is False

    def test_positive_coefficients_stable_cubic(self):
        # (x + 1)(x + 2)(x + 3) = x³ + 6x² + 11x + 6, with denominators
        assert hurwitz_stable(_row("3/2", "11/4", "3/2", "1/4")) is True

    def test_agreement_with_leading_minors(self):
        # The verdict against each leading Hurwitz minor, computed one by
        # one with plain rational elimination.
        rng = random.Random(41729)
        stable = 0
        for _ in range(2000):
            degree = rng.randint(1, 7)
            coeffs = [
                Fraction(rng.randint(-1, 9), rng.randint(1, 4)) for _ in range(degree)
            ] + [Fraction(rng.randint(1, 9), rng.randint(1, 4))]
            if rng.random() < 0.3:
                coeffs = [-c for c in coeffs]
            sign = 1 if coeffs[-1] > 0 else -1
            desc = [sign * c for c in reversed(coeffs)]

            def entry(i: int, j: int) -> Fraction:
                idx = 2 * j - i + 1
                return desc[idx] if 0 <= idx <= degree else Fraction(0)

            expected = all(
                _rational_det([[entry(i, j) for j in range(k)] for i in range(k)]) > 0
                for k in range(1, degree + 1)
            )
            assert hurwitz_stable(_row(*coeffs)) is expected, coeffs
            stable += expected
        assert 200 < stable < 1800

    def test_agreement_with_float_eigenvalues(self):
        # 1000 random integer matrices, sizes up to 5: the exact verdict on the
        # characteristic polynomial must agree with numpy's eigenvalues
        # whenever the spectrum is safely away from the imaginary axis.
        rng = random.Random(20260818)
        checked = 0
        for _ in range(1000):
            n = rng.randint(1, 5)
            entries = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            m = RationalMatrix(entries)
            verdict = hurwitz_stable(charpoly_adjugate(m)[0])
            eigs = np.linalg.eigvals(np.array(entries, dtype=float))
            max_re = max(e.real for e in eigs)
            scale = max(1.0, max(abs(e) for e in eigs))
            if abs(max_re) <= 1e-7 * scale:
                continue  # too close to the axis for the float oracle to vote
            assert verdict == (max_re < 0), f"disagreement on {entries}"
            checked += 1
        assert checked > 900


    @staticmethod
    def _polynomials(rng: random.Random):
        """Descending integer coefficients: products of roots left of 0,
        right of it and at it, scaled by a leading coefficient other than 1,
        and random rows with zero coefficients."""
        for case in range(6000):
            degree = case % 13
            lead = rng.choice([2, 3, 7, 10**6, -5, rng.randint(2, 10**6)])
            if case % 2:
                desc = [lead]
                for _ in range(degree):
                    root = rng.choice([rng.randint(-9, -1), rng.randint(-9, -1), 0, rng.randint(1, 4)])
                    if rng.random() < 0.3:  # a complex pair: x² - 2αx + (α² + β²)
                        alpha, beta = rng.randint(-5, 2), rng.randint(1, 4)
                        quadratic = [1, -2 * alpha, alpha * alpha + beta * beta]
                        desc = [sum(desc[i] * quadratic[d - i] for i in range(len(desc))
                                    if 0 <= d - i < 3) for d in range(len(desc) + 2)]
                    else:
                        desc = [a - root * b for a, b in zip(desc + [0], [0] + desc)]
                desc = desc[: degree + 1] if len(desc) > degree + 1 else desc
            else:
                desc = [lead] + [
                    0 if rng.random() < 0.2 else rng.randint(-3, 40) for _ in range(degree)
                ]
            yield desc

    def test_routh_column_equals_bareiss_pivots(self):
        # verdicts of the Bareiss oracle, and the Routh first column against
        # its pivots up to the first entry <= 0 (a zero entry is where the
        # elimination swaps or loses a pivot instead)
        rng = random.Random(39)
        kinds = {"stable": 0, "negative minor": 0, "zero minor": 0, "degree 0": 0}
        count = 0
        for desc in self._polynomials(rng):
            coeffs = RationalMatrix([desc[::-1]])
            verdict = hurwitz_stable(coeffs)
            assert verdict is _bareiss_hurwitz_stable(coeffs), desc
            count += 1
            n = len(desc) - 1
            if n == 0:
                kinds["degree 0"] += 1
                continue
            positive = desc if desc[0] > 0 else [-c for c in desc]
            column = _routh_column(positive)
            pivot_cols, pivot_vals, swaps = _forward(_hurwitz_matrix(positive))
            assert all(x > 0 for x in column[:-1]) and len(column) <= n
            if column[-1] != 0:
                assert pivot_vals[: len(column)] == column, desc
                kinds["stable" if verdict else "negative minor"] += 1
            else:
                assert pivot_vals[: len(column) - 1] == column[:-1], desc
                assert swaps > 0 or len(pivot_cols) < n, desc
                kinds["zero minor"] += 1
        assert count >= 5000
        assert min(kinds.values()) >= 300, kinds

    def test_routh_column_on_generated_charpolys(self):
        # the deflated charpoly of every generated A is Hurwitz stable, and
        # its Routh column is the Bareiss pivots of its Hurwitz matrix
        checked = 0
        for family in FAMILIES:
            for n in range(2, 9):
                for k in range(2, 9):
                    for seed in range(4):
                        s, _ = generate_instance(GeneratorConfig(n=n, K=k, seed=seed, family=family))
                        coeffs = charpoly_adjugate(s.A)[0].columns(1)
                        assert hurwitz_stable(coeffs) is _bareiss_hurwitz_stable(coeffs) is True
                        desc = coeffs.num[0][::-1]
                        _, pivot_vals, swaps = _forward(_hurwitz_matrix(desc))
                        assert swaps == 0 and _routh_column(desc) == pivot_vals
                        checked += 1
        assert checked == 392

    def test_tampered_routh_entry_fails_the_exactness_check(self, monkeypatch):
        # (x + 1)(x + 2)(x + 3)(x + 4): the third Routh row is divided by
        # Δ1 = 10; one unit off in the entry divided is caught
        import perturbrank.exact_linalg as exact_linalg

        coeffs = _row(24, 50, 35, 10, 1)
        assert _routh_column([1, 10, 35, 50, 24]) == [10, 300, 12600, 302400]
        assert hurwitz_stable(coeffs) is True
        divisors = []

        def tampered(num, den):
            divisors.append(den)
            return exact_div(num + 1 if den != 1 else num, den)

        exact_div = exact_linalg._exact_div
        monkeypatch.setattr(exact_linalg, "_exact_div", tampered)
        with pytest.raises(ArithmeticError, match="^fraction-free step produced a non-integer$"):
            hurwitz_stable(coeffs)
        assert divisors[-1] == 10


def _descartes_inertia(m: RationalMatrix) -> tuple[int, int, int]:
    """(n+, n0, n-) from the signs of the characteristic polynomial: zero's
    multiplicity is its count of trailing zero coefficients, and Descartes'
    rule counts the positive and negative roots exactly, since every root
    of a symmetric matrix is real."""
    ascending = charpoly_adjugate(m)[0].num[0]
    zero = next(i for i, c in enumerate(ascending) if c)
    rest = ascending[zero:]

    def changes(seq):
        signs = [c > 0 for c in seq if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(rest), zero, changes([c * (-1) ** i for i, c in enumerate(rest)])


def _jacobi_inertia(m: RationalMatrix) -> tuple[int, int, int]:
    """(n+, n0, n-) from the float eigenvalues, with |λ| <= the rank
    agreement tolerance times max|M| counted as zero."""
    from perturbrank.asymptotics import RANK_AGREEMENT_TOLERANCE, jacobi_eigenvalues

    mf = m.to_float()
    tol = RANK_AGREEMENT_TOLERANCE * max(abs(x) for row in mf for x in row)
    eigs = jacobi_eigenvalues(mf)
    pos, neg = sum(e > tol for e in eigs), sum(e < -tol for e in eigs)
    return pos, len(eigs) - pos - neg, neg


class TestInertia:
    def test_small_cases(self):
        assert inertia(RationalMatrix([[0, 1], [1, 0]])) == (1, 0, 1)
        assert inertia(RationalMatrix([[0, 0], [0, 0]])) == (0, 2, 0)
        assert inertia(RationalMatrix([[0, 3, 0], [3, 0, 0], [0, 0, 0]])) == (1, 1, 1)
        assert inertia(RationalMatrix([["-1/8", "1/8"], ["1/8", "-1/8"]])) == (0, 1, 1)
        assert inertia(RationalMatrix([["1/2", "1/3"], ["1/3", "-1/5"]])) == (1, 0, 1)
        assert inertia(RationalMatrix([[-7]])) == (0, 0, 1)
        # an all-zero trailing diagonal: the congruence puts 2 a_01 = 2 on it
        assert _forward([[0, 1], [1, 0]], symmetric=True) == ([0, 1], [2, -1], 0)
        # the zero first diagonal entry needs the joint row-and-column swap
        assert inertia(RationalMatrix([[0, 1, 0], [1, 2, 0], [0, 0, -3]])) == (1, 0, 2)

    def test_rejects_non_symmetric_input(self):
        with pytest.raises(ValueError, match="^inertia of a 2x2 matrix that is not symmetric$"):
            inertia(RationalMatrix([[0, 1], [2, 0]]))
        with pytest.raises(ValueError, match="^inertia of a 1x2 matrix that is not symmetric$"):
            inertia(RationalMatrix([[0, 1]]))

    def test_generated_M_by_two_routes(self):
        # Descartes on the exact charpoly and the signs of the Jacobi
        # spectrum; K - n0 is the exact rank, and n+ = 0 is exactly where
        # the float dissipativity test passes
        from perturbrank.asymptotics import analyze_structure, build_M

        signs = {"nonpositive": 0, "indefinite": 0}
        for family in FAMILIES:
            for n in range(2, 9):
                for k in range(2, 9):
                    for seed in range(4):
                        cfg = GeneratorConfig(n=n, K=k, seed=seed, family=family)
                        ts = build_M(*generate_instance(cfg))
                        counts = inertia(ts.M)
                        assert counts == _descartes_inertia(ts.M) == _jacobi_inertia(ts.M), cfg
                        assert k - counts[1] == rank_exact(ts.M), cfg
                        kinds = {b["kind"] for b in analyze_structure(ts).breaches}
                        assert ("dissipativity" in kinds) == (counts[0] > 0), cfg
                        signs["nonpositive" if counts[0] == 0 else "indefinite"] += 1
        assert sum(signs.values()) == 392
        assert min(signs.values()) >= 100, signs

    @staticmethod
    def _symmetric_matrices(rng: random.Random):
        """Zero-diagonal indefinite matrices (the first step needs the
        2 a_ij move), low-rank L D Lᵀ products, and 10^40-sized entries."""
        for case in range(360):
            n = rng.randint(1, 8)
            if case % 3 == 0:
                n = max(n, 2)
                a = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        a[i][j] = a[j][i] = rng.choice([0, rng.randint(1, 9), rng.randint(-9, -1)])
                yield "zero diagonal", a
            elif case % 3 == 1:
                r = rng.randint(0, n)
                bound = 10**40 if rng.random() < 0.25 else 5
                left = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(n)]
                d = [rng.choice([-3, -1, 1, 2]) for _ in range(r)]
                yield "low rank", [
                    [sum(x * w * y for x, w, y in zip(left[i], d, left[j])) for j in range(n)]
                    for i in range(n)
                ]
            else:
                a = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        a[i][j] = a[j][i] = rng.randint(-(10**40), 10**40)
                yield "large", a

    def test_seeded_symmetric_integer_matrices(self):
        rng = random.Random(391)
        kinds = {"zero diagonal": 0, "low rank": 0, "large": 0, "2 a_ij move": 0}
        for kind, rows in self._symmetric_matrices(rng):
            m = RationalMatrix(rows)
            counts = inertia(m)
            assert counts == _descartes_inertia(m), rows
            assert m.rows - counts[1] == rank_exact(m), rows
            if any(any(row) for row in rows):
                assert counts == _jacobi_inertia(m), rows
            kinds[kind] += 1
            if kind == "zero diagonal" and counts[0] > 0:
                # the first pivot is 2 a_ij for the first a_ij != 0
                first = next(x for i, row in enumerate(rows) for x in row[i + 1:] if x)
                assert _forward([list(r) for r in rows], symmetric=True)[1][0] == 2 * first
                kinds["2 a_ij move"] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_tampered_pivot_fails_the_exactness_check(self, monkeypatch):
        import perturbrank.exact_linalg as exact_linalg

        m = RationalMatrix([[2, 1, 1], [1, 3, 1], [1, 1, 4]])
        assert inertia(m) == (3, 0, 0)

        def tampered(num, den):
            # the previous pivot, one unit off, divides the next step
            return exact_div(num, den + 1 if den != 1 else den)

        exact_div = exact_linalg._exact_div
        monkeypatch.setattr(exact_linalg, "_exact_div", tampered)
        with pytest.raises(ArithmeticError, match="^fraction-free step produced a non-integer$"):
            inertia(m)


def _kernel_cases():
    """W1, the shipped violation instance and generated instances, n and K
    in 2..8, both families."""
    cases = [W1, load_instance_file(VIOLATION_PATH)]
    for family in FAMILIES:
        for n in range(2, 9):
            for k in range(2, 9):
                cfg = GeneratorConfig(n=n, K=k, seed=7 * n + k, family=family)
                cases.append(generate_instance(cfg)[0])
    return cases


def _null_pair_chain(a: RationalMatrix, adj: RationalMatrix):
    """The null pair by the chain of generic operations that the one-pass
    ``null_pair`` replaced: column and row extraction, zero tests, two
    check products, a transpose, two Fraction reciprocals and two
    scalings."""
    n = a.rows

    def is_zero(m):
        return m == RationalMatrix([[0] * m.cols] * m.rows)

    columns = (adj.transpose().row(j).transpose() for j in range(n))
    right = next(col for col in columns if not is_zero(col))
    if not is_zero(a @ right):
        raise ArithmeticError("adjugate column is not a right null vector of A")
    left = next(row for row in map(adj.row, range(n)) if not is_zero(row))
    if not is_zero(left @ a):
        raise ArithmeticError("adjugate row is not a left null vector of A")
    lead = next(x for x in (right[i, 0] for i in range(n)) if x)
    h1 = right.transpose().scale(1 / lead)
    pairing = (h1 @ left.transpose())[0, 0]
    return h1, left.scale(1 / pairing)


class TestFusedKernels:
    def test_null_pair_equals_operation_chain(self):
        cases = _kernel_cases()
        for s in cases:
            adj = charpoly_adjugate(s.A)[1]
            got, expected = s.A.null_pair(adj), _null_pair_chain(s.A, adj)
            assert [(m.num, m.den) for m in got] == [(m.num, m.den) for m in expected]
            # the scale of the adjugate cancels, sign included
            for scale in (Fraction(-3, 7), Fraction(5)):
                assert s.A.null_pair(adj.scale(scale)) == got
        assert len(cases) == 2 + 2 * 7 * 7

    def test_null_pair_checks_both_sides(self):
        a = RationalMatrix([[-1, 1], [1, -1]])
        with pytest.raises(ArithmeticError, match="^adjugate column is not a right null vector of A$"):
            a.null_pair(RationalMatrix([[1, 0], [0, 0]]))
        with pytest.raises(ArithmeticError, match="^adjugate row is not a left null vector of A$"):
            a.null_pair(RationalMatrix([[1, 2], [1, 2]]))
        # a nilpotent A: both checks pass, but the pair is orthogonal
        nilpotent = RationalMatrix([[0, 1], [0, 0]])
        with pytest.raises(ZeroDivisionError):
            nilpotent.null_pair(charpoly_adjugate(nilpotent)[1])

    def test_center_equals_product_and_difference(self):
        rng = random.Random(3511)
        triples = []
        for s in _kernel_cases():
            sd = validate_system(s)
            triples.append((s.D, sd.h1, sd.h1_star))
        for _ in range(100):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            triples.append(
                tuple(_random_matrix(rng, *shape) for shape in ((rows, cols), (1, cols), (1, cols)))
            )
        for x, l, r in triples:
            c = x.scale_columns(l) @ r.transpose()
            centred = x - c @ RationalMatrix([[1] * x.cols])
            got = x.center(l, r)
            assert [(m.num, m.den) for m in got] == [(c.num, c.den), (centred.num, centred.den)]

    def test_center_shapes(self):
        x, row = RationalMatrix([[1, 2, 3]]), RationalMatrix([[1, 1, 1]])
        assert x.center(row, row) == (RationalMatrix([[6]]), RationalMatrix([[-5, -4, -3]]))
        for l, r in ((row, RationalMatrix([[1, 1]])), (row.transpose(), row), (x, x.transpose())):
            with pytest.raises(ValueError):
                x.center(l, r)
