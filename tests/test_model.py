from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from perturbrank.asymptotics import analyze_structure, build_M
from perturbrank.exact_linalg import (
    RationalMatrix,
    charpoly_adjugate,
    nullspace,
    rank_exact,
)
from perturbrank.formats import build_report, dumps, instance_to_dict, load_instance_file
from perturbrank.model import (
    FAMILIES,
    MARKOV_FAMILY,
    SIMILARITY_FAMILY,
    GenerationFailed,
    GeneratorConfig,
    KernelDimensionError,
    NotStable,
    SpectralData,
    SystemSpec,
    _ENTRY_BOUND,
    _draw_row,
    _markov_generator,
    _random_similar,
    generate_instance,
    validate_system,
)

from common import TRIPLE_A, _flat, dot

#: SHA-256 of every generated instance and its spectral data over both
#: families, n, K in 2..8 and seeds 0-2, recorded from the Fraction-based
#: generator; a change in draw order or in any drawn value changes it.
GENERATOR_DIGEST = "9ff9241370af407c63019b85a1ec2f89a268814cb6790cdc065bf20f3997df3e"

W1_A = RationalMatrix([[-1, 1], [1, -1]])


def _rows(m: RationalMatrix) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(_flat(m.row(i)) for i in range(m.rows))


def _spec(a: RationalMatrix, k: int = 2) -> SystemSpec:
    n = a.rows
    diagonals = tuple(
        tuple(Fraction(i + j * n) for i in range(n)) for j in range(k)
    )
    return SystemSpec(n=n, K=k, D=RationalMatrix(diagonals), A=a)


class TestSystemSpec:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            SystemSpec(n=1, K=2, D=RationalMatrix([[0]] * 2), A=RationalMatrix([[0]]))
        with pytest.raises(ValueError):
            SystemSpec(n=2, K=0, D=RationalMatrix([[0, 0]]), A=W1_A)
        with pytest.raises(ValueError):
            SystemSpec(n=2, K=1, D=RationalMatrix([[0]]), A=W1_A)
        with pytest.raises(ValueError):
            SystemSpec(n=3, K=1, D=RationalMatrix([[0] * 3]), A=W1_A)


def null_pair_normalized(
    a: RationalMatrix,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Oracle: the null pair by two eliminations, one per kernel.

    Requires one-dimensional kernels on both sides and scales the pair to
    first-nonzero(h1) = 1 and (h1, h1_star) = 1; raises ``ValueError``
    when the two null vectors are orthogonal (defective zero eigenvalue).
    """
    right = list(map(_flat, nullspace(a)))
    if len(right) != 1:
        raise KernelDimensionError(f"right kernel dimension is {len(right)}, need exactly 1")
    left = list(map(_flat, nullspace(a.transpose())))
    if len(left) != 1:
        raise KernelDimensionError(f"left kernel dimension is {len(left)}, need exactly 1")
    (h1,), (raw,) = right, left
    pairing = dot(h1, raw)
    if pairing == 0:
        raise ValueError("right and left null vectors are orthogonal")
    return h1, tuple(x / pairing for x in raw)


class TestNullPair:
    """``validate_system`` against the elimination oracle on hand-made A."""

    def test_two_state_exchange(self):
        h1, h1_star = null_pair_normalized(W1_A)
        assert h1 == (Fraction(1), Fraction(1))
        assert h1_star == (Fraction(1, 2), Fraction(1, 2))
        data = validate_system(_spec(W1_A))
        assert (_flat(data.h1), _flat(data.h1_star)) == (h1, h1_star)

    def test_asymmetric_two_state(self):
        # A = [[-a, b], [k a, -k b]] with a=2, b=1, k=1
        a = RationalMatrix([[-2, 1], [2, -1]])
        h1, h1_star = null_pair_normalized(a)
        assert h1 == (Fraction(1), Fraction(2))
        assert h1_star == (Fraction(1, 3), Fraction(1, 3))
        assert dot(h1, h1_star) == 1
        data = validate_system(_spec(a))
        assert (_flat(data.h1), _flat(data.h1_star)) == (h1, h1_star)

    def test_invertible_matrix_rejected(self):
        with pytest.raises(KernelDimensionError):
            null_pair_normalized(RationalMatrix.identity(2))
        with pytest.raises(KernelDimensionError, match="not an eigenvalue"):
            validate_system(_spec(RationalMatrix.identity(2)))

    def test_defective_zero_not_normalizable(self):
        # both kernels are lines, but orthogonal: the zero root is double
        nilpotent = RationalMatrix([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="orthogonal"):
            null_pair_normalized(nilpotent)
        with pytest.raises(KernelDimensionError, match="not simple"):
            validate_system(_spec(nilpotent))

    def test_fat_kernel_rejected(self):
        zero = RationalMatrix([[0, 0], [0, 0]])
        with pytest.raises(KernelDimensionError):
            null_pair_normalized(zero)
        with pytest.raises(KernelDimensionError, match="not simple"):
            validate_system(_spec(zero))


def _inverse_by_elimination(x: RationalMatrix) -> RationalMatrix:
    """Oracle: X⁻¹ read off the kernel of [X | -I], never off a charpoly;
    kernel vector j is (column j of X⁻¹, e_j) up to scale."""
    n = x.rows
    aug = RationalMatrix(
        [x[i, j] for j in range(n)] + [-int(i == j) for j in range(n)] for i in range(n)
    )
    kernel = list(map(_flat, nullspace(aug)))
    assert len(kernel) == n  # X is invertible
    columns = [tuple(y / z[n + j] for y in z[:n]) for j, z in enumerate(kernel)]
    return RationalMatrix(zip(*columns))


def _admissible_non_markov(rng: random.Random, n: int) -> RationalMatrix:
    """X J X⁻¹ for J = [[0, r], [0, S]] with S upper triangular and a
    negative diagonal, X a random invertible integer matrix: a simple
    zero root, the rest of the spectrum the diagonal of S, and null
    vectors X e_1 and X⁻ᵀ (1, -r S⁻¹) that may carry zero entries."""
    j = [[0] * n for _ in range(n)]
    for c in range(1, n):
        j[0][c] = rng.randint(-3, 3)
        j[c][c] = -Fraction(rng.randint(1, 6), rng.randint(1, 3))
        for r in range(c + 1, n):
            j[c][r] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    while True:
        x = RationalMatrix([rng.randint(-3, 3) for _ in range(n)] for _ in range(n))
        if rank_exact(x) == n:
            return x @ RationalMatrix(j) @ _inverse_by_elimination(x)


class TestValidateSystem:
    def test_two_state_exchange(self):
        data = validate_system(_spec(W1_A))
        assert data == SpectralData(
            h1=RationalMatrix([[1, 1]]),
            h1_star=RationalMatrix([["1/2", "1/2"]]),
            G=RationalMatrix([["-1/4", "1/4"], ["1/4", "-1/4"]]),
        )

    def test_triple_exchange(self):
        data = validate_system(_spec(TRIPLE_A))
        assert _flat(data.h1) == (Fraction(1), Fraction(1), Fraction(1))
        assert _flat(data.h1_star) == (Fraction(1, 3),) * 3

    def test_no_zero_eigenvalue(self):
        with pytest.raises(KernelDimensionError):
            validate_system(_spec(RationalMatrix([[-1, 0], [0, -2]])))

    def test_defective_zero(self):
        with pytest.raises(KernelDimensionError):
            validate_system(_spec(RationalMatrix([[0, 1], [0, 0]])))

    def test_double_zero_eigenvalue(self):
        with pytest.raises(KernelDimensionError):
            validate_system(_spec(RationalMatrix([[0] * 3] * 3), k=1))

    def test_unstable_branch(self):
        a = RationalMatrix([[0, 0], [0, 1]])
        with pytest.raises(NotStable):
            validate_system(_spec(a))

    def test_pairing_is_exact(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 6)
            a = _markov_generator(rng, n, 5)
            data = validate_system(_spec(a))
            assert a @ data.h1.transpose() == RationalMatrix([[0]] * n)
            assert a.transpose() @ data.h1_star.transpose() == RationalMatrix(
                [[0]] * n
            )
            assert dot(_flat(data.h1), _flat(data.h1_star)) == 1
            lead = next(x for x in _flat(data.h1) if x != 0)
            assert lead == 1

    def test_matches_elimination_oracle(self):
        # the adjugate pair equals the two-elimination pair on admissible
        # matrices without Markov structure, zero null-vector entries included
        rng = random.Random(1717)
        zero_entries = non_markov = 0
        for _ in range(1000):
            a = _admissible_non_markov(rng, rng.randint(2, 7))
            data = validate_system(_spec(a))
            assert (_flat(data.h1), _flat(data.h1_star)) == null_pair_normalized(a)
            zero_entries += not (all(_flat(data.h1)) and all(_flat(data.h1_star)))
            non_markov += a.transpose() @ RationalMatrix([[1]] * a.rows) != RationalMatrix(
                [[0]] * a.rows
            )
        assert zero_entries > 0
        assert non_markov > 990


class TestGeneratorConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n=1, K=2, seed=0)
        with pytest.raises(ValueError):
            GeneratorConfig(n=2, K=1, seed=0)
        with pytest.raises(ValueError):
            GeneratorConfig(n=2, K=2, seed=-1)
        with pytest.raises(ValueError):
            GeneratorConfig(n=2, K=2, seed=2**64)
        with pytest.raises(ValueError):
            GeneratorConfig(n=2, K=2, seed=0, family="other")


def _fraction_similar(
    rng: random.Random, base: RationalMatrix, bound: int
) -> tuple[RationalMatrix, RationalMatrix, int]:
    """Oracle: the Fraction route, the first T of full rank, drawn as the
    generator draws it, with T⁻¹ by elimination; also the draw count."""
    n = base.rows
    for draws in range(1, 201):
        t = RationalMatrix(
            [[Fraction(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(n)]
        )
        if rank_exact(t) == n:
            return t, _inverse_by_elimination(t), draws
    raise AssertionError("no invertible transform drawn")


def _column_sums(m: RationalMatrix) -> tuple[Fraction, ...]:
    """1ᵀ m, entry by entry."""
    return tuple(sum(m[i, j] for i in range(m.rows)) for j in range(m.cols))


class TestDrawRow:
    def test_same_stream_as_randint(self):
        # every width the generator draws from (and those of an entry
        # bound of 1), as grid numerators over scale or as plain integers
        scale = lcm(*range(1, _ENTRY_BOUND + 1))
        widths = ((1, 6, scale), (-6, 6, scale), (-3, 3, 0), (-1, 1, 1), (0, 0, 0))
        for seed in range(256):
            ours, theirs = random.Random(seed), random.Random(seed)
            for count in range(1, 9):
                for low, high, grid in widths:
                    row = _draw_row(ours, count, low, high, grid)
                    expected = []
                    for _ in range(count):
                        p = theirs.randint(low, high)
                        expected.append(p * (grid // theirs.randint(1, high)) if grid else p)
                    assert row == expected
                    assert ours.getstate() == theirs.getstate()


class TestRandomSimilar:
    def test_matches_fraction_conjugation(self):
        redrawn = screened = 0
        for family in FAMILIES:
            for n in range(2, 9):
                for seed in range(20):
                    s, _ = generate_instance(
                        GeneratorConfig(n=n, K=2, seed=seed, family=family)
                    )
                    ours = random.Random(100 * n + seed)
                    oracle = random.Random(100 * n + seed)
                    t, t_inv, draws = _fraction_similar(oracle, s.A, 3)
                    # a zero column sum of T⁻¹ rejects T before conjugation
                    expected = t @ s.A @ t_inv if all(_column_sums(t_inv)) else None
                    assert _random_similar(ours, s.A, 3) == expected
                    # same draws from the stream, singular ones included
                    assert ours.getstate() == oracle.getstate()
                    redrawn += draws > 1
                    screened += expected is None
        assert redrawn > 0  # some seed drew a singular transform first
        assert screened > 0  # and some seed's transform was pre-screened

    def test_adjugate_column_sums_span_the_left_null_vector(self):
        # Lemma: for a Markov base B (1ᵀ B = 0), h1_star(T B T⁻¹) is a
        # multiple of 1ᵀ T⁻¹ and so of 1ᵀ adj(T); a zero column sum of
        # adj(T) is exactly a zero entry of h1_star
        hits = 0
        for n in range(2, 9):
            for seed in range(40):
                base = _markov_generator(random.Random(seed), n, _ENTRY_BOUND)
                t, t_inv, _ = _fraction_similar(random.Random(1000 * n + seed), base, 3)
                _, h1_star = null_pair_normalized(t @ base @ t_inv)
                sums = _column_sums(charpoly_adjugate(t)[1])
                lead = next(j for j, x in enumerate(sums) if x)
                assert all(h * sums[lead] == x * h1_star[lead] for h, x in zip(h1_star, sums))
                assert (0 in sums) == (0 in h1_star)
                hits += 0 in sums
        assert hits > 0  # some seed hits the rejection

    def test_always_singular_transform_fails(self):
        with pytest.raises(GenerationFailed, match="invertible"):
            _random_similar(random.Random(0), TRIPLE_A, 0)


class TestGenerateInstance:
    def test_deterministic(self):
        for family in FAMILIES:
            cfg = GeneratorConfig(n=3, K=3, seed=987654321, family=family)
            assert generate_instance(cfg) == generate_instance(cfg)

    def test_seed_changes_instance(self):
        a, _ = generate_instance(GeneratorConfig(n=3, K=2, seed=1))
        b, _ = generate_instance(GeneratorConfig(n=3, K=2, seed=2))
        assert a != b

    def test_markov_structure(self):
        rng = random.Random(5)
        for _ in range(10):
            seed = rng.getrandbits(32)
            s, _ = generate_instance(GeneratorConfig(n=4, K=3, seed=seed))
            ones = RationalMatrix([[1]] * 4)
            assert s.A.transpose() @ ones == RationalMatrix([[0]] * 4)
            for i in range(4):
                for j in range(4):
                    if i != j:
                        assert s.A[i, j] > 0

    def test_generated_instances_validate(self):
        rng = random.Random(6)
        for family in FAMILIES:
            for _ in range(8):
                cfg = GeneratorConfig(
                    n=rng.randint(2, 5), K=rng.randint(2, 5), seed=rng.getrandbits(40),
                    family=family,
                )
                s, data = generate_instance(cfg)
                assert data == validate_system(s)  # the validation it already ran
                assert all(x != 0 for x in _flat(data.h1))
                assert all(x != 0 for x in _flat(data.h1_star))
                for d in _rows(s.D):
                    assert len(set(d)) == s.n
                assert len(set(_rows(s.D))) == s.K
                assert s.label == f"{family}-n{cfg.n}-K{cfg.K}-seed{cfg.seed}"

    def test_similarity_preserves_spectrum(self):
        # White box: the base generator is drawn first from the same stream,
        # so the conjugated instance must share its characteristic polynomial.
        cfg = GeneratorConfig(n=4, K=2, seed=31337, family=SIMILARITY_FAMILY)
        s, _ = generate_instance(cfg)
        base = _markov_generator(random.Random(cfg.seed), cfg.n, _ENTRY_BOUND)
        assert charpoly_adjugate(s.A)[0] == charpoly_adjugate(base)[0]

    def test_null_pair_computed_once_per_draw(self, monkeypatch):
        # The pair is read off the adjugate of the one charpoly pass per
        # candidate A, not eliminated; it must still be the eliminated pair.
        # Each transform T adds a pass of its own, which is not counted,
        # and a T whose adjugate has a zero column sum is never conjugated.
        import perturbrank.model as model

        assert not hasattr(model, "nullspace")
        candidates, passes, left = [], [], []
        screened = 0

        def similar(*args):
            nonlocal screened
            a = true_similar(*args)
            if a is None:
                screened += 1
            else:
                candidates.append(a)
            return a

        def charpoly(m):
            passes.append((m, true_pass(m)))
            return passes[-1][1]

        def matmul(x, y):
            left.append(x)
            return true_matmul(x, y)

        true_similar, true_pass = model._random_similar, model.charpoly_adjugate
        true_matmul = RationalMatrix.__matmul__
        monkeypatch.setattr(model, "_random_similar", similar)
        monkeypatch.setattr(model, "charpoly_adjugate", charpoly)
        draws, prescreened = [], 0
        for n in range(2, 9):
            for seed in range(12):
                for family in FAMILIES:
                    candidates.clear()
                    passes.clear()
                    left.clear()
                    screened = 0
                    monkeypatch.setattr(RationalMatrix, "__matmul__", matmul)
                    s, data = generate_instance(
                        GeneratorConfig(n=n, K=3, seed=seed, family=family)
                    )
                    monkeypatch.setattr(RationalMatrix, "__matmul__", true_matmul)
                    on_candidates = [m for m, _ in passes if any(m is a for a in candidates)]
                    if family == MARKOV_FAMILY:
                        assert candidates == [] and on_candidates == []
                        assert [m for m, _ in passes] == [s.A]
                    else:
                        assert len(on_candidates) == len(candidates) >= 1
                        assert on_candidates[-1] is candidates[-1] == s.A
                        draws.append(len(candidates) + screened)
                        rejected = 0
                        for t, (coeffs, adj, _) in passes:
                            if t in on_candidates or not coeffs[0, 0]:
                                continue  # a candidate A or a singular T
                            if 0 in _column_sums(adj):
                                assert not any(t is x for x in left)
                                rejected += 1
                        assert rejected == screened
                        prescreened += screened
                    # the oracle runs outside the counted generation
                    assert (_flat(data.h1), _flat(data.h1_star)) == null_pair_normalized(s.A)
        assert max(draws) > 1  # some seed's zero-entry screen rejected a draw
        assert prescreened > 0

    def test_wrong_constructed_pair_raises(self, monkeypatch):
        # The product checks are live: an adjugate whose columns are not
        # null vectors fails A h1 = 0, and one whose rows are not fails
        # h1_starᵀ A = 0, in both families.
        import perturbrank.model as model

        true_pass = model.charpoly_adjugate

        def skew_rows(m):
            coeffs, adj, g = true_pass(m)
            scales = RationalMatrix([range(1, m.rows + 1)])
            return coeffs, adj.transpose().scale_columns(scales).transpose(), g

        def skew_columns(m):
            coeffs, adj, g = true_pass(m)
            return coeffs, adj.scale_columns(RationalMatrix([range(1, m.rows + 1)])), g

        for fake, side in ((skew_rows, "right"), (skew_columns, "left")):
            monkeypatch.setattr(model, "charpoly_adjugate", fake)
            for family in FAMILIES:
                with pytest.raises(ArithmeticError, match=f"{side} null vector"):
                    generate_instance(GeneratorConfig(n=4, K=2, seed=3, family=family))
            with pytest.raises(ArithmeticError, match=f"{side} null vector"):
                validate_system(_spec(TRIPLE_A.scale_columns(RationalMatrix([(1, 2, 3)]))))

    def test_similarity_is_not_markov(self):
        found_non_markov = False
        for seed in range(20):
            s, _ = generate_instance(
                GeneratorConfig(n=3, K=2, seed=seed, family=SIMILARITY_FAMILY)
            )
            ones = RationalMatrix([[1]] * 3)
            if s.A.transpose() @ ones != RationalMatrix([[0]] * 3):
                found_non_markov = True
                break
        assert found_non_markov

    def test_generation_failure_when_bound_too_tight(self, monkeypatch):
        # an entry bound of 1 gives only 3 possible diagonal values; 8
        # distinct entries are impossible, so bounded resampling must give up.
        import perturbrank.model as model

        monkeypatch.setattr(model, "_ENTRY_BOUND", 1)
        cfg = GeneratorConfig(n=8, K=2, seed=0, family=MARKOV_FAMILY)
        with pytest.raises(GenerationFailed):
            generate_instance(cfg)

    def test_pushed_vectors_in_general_position(self):
        # The rank law is generic: it can only hold when the vectors
        # (D_i - v_i) h1 span min(K, n-1) dimensions, so the sampler must
        # keep every draw off the lower-rank stratum (e.g. affinely
        # dependent diagonals D_j = a D_i + b (1,...,1)).
        for index in range(60):
            n = 2 + index % 5
            k = 2 + index % 6
            family = FAMILIES[index % 2]
            s, data = generate_instance(
                GeneratorConfig(n=n, K=k, seed=5000 + index, family=family)
            )
            weights = tuple(a * b for a, b in zip(_flat(data.h1), _flat(data.h1_star)))
            pushed = []
            for d in _rows(s.D):
                v = dot(d, weights)
                pushed.append(tuple((di - v) * h for di, h in zip(d, _flat(data.h1))))
            assert rank_exact(RationalMatrix(pushed)) == min(k, n - 1)

    def test_outputs_pinned_by_digest(self):
        digest = hashlib.sha256()
        for family in FAMILIES:
            for n in range(2, 9):
                for k in range(2, 9):
                    for seed in range(3):
                        s, data = generate_instance(
                            GeneratorConfig(n=n, K=k, seed=seed, family=family)
                        )
                        spectral = [
                            [str(x) for x in _flat(data.h1)],
                            [str(x) for x in _flat(data.h1_star)],
                            True,  # the report's "stable" field, part of the recorded digest
                        ]
                        digest.update(dumps(instance_to_dict(s)).encode("utf-8"))
                        digest.update(dumps(spectral).encode("utf-8"))
        assert digest.hexdigest() == GENERATOR_DIGEST


class TestIntegerRows:
    """Every exact vector is held as integer rows: D is K x n, h1 and
    h1_star are 1 x n, v is K x 1 and each kernel direction of M is
    1 x K, so generating an instance, building its M, loading its file
    and writing its report construct no Fraction per entry."""

    def test_vector_fields_are_matrices(self):
        for family in FAMILIES:
            s, data = generate_instance(GeneratorConfig(n=5, K=3, seed=4, family=family))
            ts = build_M(s, data)
            shapes = [(m.rows, m.cols) for m in (data.h1, data.h1_star, s.D, ts.v)]
            assert shapes == [(1, 5), (1, 5), (3, 5), (3, 1)]
            assert all(isinstance(m, RationalMatrix) for m in (data.h1, data.h1_star, s.D, ts.v))

    def test_fraction_constructions_do_not_grow(self, tmp_path):
        built = []
        original = vars(Fraction)["__new__"]

        def counted(cls, *args, **kwargs):
            built.append(cls)
            return original.__func__(cls, *args, **kwargs)

        generate, assemble, load, report = {}, {}, {}, {}
        Fraction.__new__ = staticmethod(counted)
        try:
            for family in FAMILIES:
                for n, k in itertools.product((2, 5, 8), repeat=2):
                    built.clear()
                    s, data = generate_instance(GeneratorConfig(n=n, K=k, seed=9, family=family))
                    generate[family, n, k] = len(built)
                    built.clear()
                    ts = build_M(s, data)
                    assemble[family, n, k] = len(built)
                    path = tmp_path / f"{family}-{n}-{k}.json"
                    path.write_text(dumps(instance_to_dict(s)), encoding="utf-8")
                    built.clear()
                    assert load_instance_file(str(path)) == s
                    load[family, n, k] = len(built)
                    built.clear()
                    build_report(s, data, ts, analyze_structure(ts))
                    report[family, n, k] = len(built)
        finally:
            Fraction.__new__ = original
        assert len(set(assemble.values())) == 1, assemble
        assert len(set(load.values())) == 1, load
        assert len(set(report.values())) == 1, report
        for family, n, k in generate:
            assert generate[family, n, k] == generate[family, n, 2], generate


def _pushed_rank(diagonals, h1, h1_star) -> int:
    """rank{P_i}, P_i = H (d_i - v_i 1) with v_i = h1_star^T H d_i."""
    weights = tuple(a * b for a, b in zip(h1, h1_star))
    pushed = []
    for d in diagonals:
        v = dot(d, weights)
        pushed.append(tuple((di - v) * h for di, h in zip(d, h1)))
    return rank_exact(RationalMatrix(pushed))


def _affine_rank(diagonals) -> int:
    """rank[1; d_1; ...; d_j], the quantity the diagonal screen tests."""
    ones = (Fraction(1),) * len(diagonals[0])
    return rank_exact(RationalMatrix([ones, *diagonals]))


class TestAffineRankLemma:
    """rank{P_1..P_j} = rank[1; d_1; ...; d_j] - 1 when h1 has no zero
    entry and (h1, h1_star) = 1: the identity behind the generator's
    diagonal screen."""

    def test_ranks_agree_on_random_data(self):
        rng = random.Random(8)

        def frac(lo: int) -> Fraction:
            return Fraction(rng.randint(lo, 4), rng.randint(1, 4))

        kinds = {"random": 0, "repeat": 0, "affine": 0, "constant": 0}
        for _ in range(400):
            n = rng.randint(2, 7)
            h1 = tuple(frac(1) * rng.choice((-1, 1)) for _ in range(n))  # no zero
            while True:
                raw = tuple(frac(-4) for _ in range(n))  # zeros allowed here
                pairing = dot(raw, h1)
                if pairing != 0:
                    break
            h1_star = tuple(x / pairing for x in raw)
            assert dot(h1, h1_star) == 1
            diagonals = []
            for _ in range(rng.randint(1, n + 2)):
                kind = rng.choice(tuple(kinds)) if diagonals else "random"
                if kind == "repeat":
                    d = rng.choice(diagonals)
                elif kind == "affine":
                    a, b = frac(-4), frac(-4)
                    d = tuple(a * x + b for x in rng.choice(diagonals))
                elif kind == "constant":
                    d = (frac(-4),) * n
                else:
                    d = tuple(frac(-4) for _ in range(n))
                kinds[kind] += 1
                diagonals.append(d)
                assert _pushed_rank(diagonals, h1, h1_star) == _affine_rank(diagonals) - 1
        assert all(count > 0 for count in kinds.values())

    def test_zero_entry_in_h1_breaks_the_identity(self):
        # A hand-fed A may have h1 with a zero entry; then H is singular and
        # the affine rank overstates rank{P_i}.  That is why
        # analyze_structure tests degeneracy on P, not on the diagonals.
        a = RationalMatrix([[0, 1], [0, -1]])
        diagonals = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(2)))
        spec = SystemSpec(n=2, K=2, D=RationalMatrix(diagonals), A=a)
        data = validate_system(spec)
        assert _flat(data.h1) == (1, 0)
        assert _affine_rank(_rows(spec.D)) - 1 == 1 == min(spec.K, spec.n - 1)
        assert _pushed_rank(_rows(spec.D), _flat(data.h1), _flat(data.h1_star)) == 0
        ts = build_M(spec, data)
        assert analyze_structure(ts).outcome == "degenerate"
