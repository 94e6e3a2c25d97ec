"""Tests for campaign orchestration, classification, and violation capture."""

import contextlib
import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import perturbrank.model
import perturbrank.search
from perturbrank.asymptotics import StructureReport, analyze_structure, build_M
from perturbrank.cli import run_command
from perturbrank.exact_linalg import RationalMatrix, charpoly_adjugate, nullspace
from perturbrank.formats import (
    build_report,
    dumps,
    instance_to_dict,
    load_instance_file,
)
from perturbrank.model import (
    FAMILIES,
    GenerationFailed,
    GeneratorConfig,
    KernelDimensionError,
    NotStable,
    SIMILARITY_FAMILY,
    SystemSpec,
    generate_instance,
    validate_system,
)
from perturbrank.search import (
    CampaignConfig,
    derive_instance_seed,
    run_campaign,
)

from common import TRIPLE_A, W1

# SHA-256 of the campaign output of test_report_and_artifacts_pinned_by_digest:
# the report as dumps writes it, without runtime_seconds, and the artifact
# names and bytes in name order.
REPORT_DIGEST = "73fcac55b52e51dffe56f5ab9e9f687df98b6c415660f20e9a3a10e5df15ec00"
ARTIFACT_DIGEST = "faf9acb8f02960c84333f96b6d80e7bf41a80ebea3829a0d172a9ac089694cbe"

PATH_A = RationalMatrix([[-1, 1, 0], [1, -2, 1], [0, 1, -1]])


def _verdict(spec: SystemSpec, sd=None) -> StructureReport:
    sd = validate_system(spec) if sd is None else sd
    return analyze_structure(build_M(spec, sd))


FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatches reach the campaign's children only through fork",
)


def _meet(flags, search_pid: int) -> str:
    """This process's role, once the other role is also inside a cell.

    On two cells and two workers, each worker waits here until the other
    has claimed a cell, so one cell runs in the search process and one in
    the child, whichever claims first.
    """
    role, other = ("search", "child") if os.getpid() == search_pid else ("child", "search")
    (flags / role).touch()
    deadline = time.monotonic() + 30
    while not (flags / other).exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"no {other} cell started")
        time.sleep(0.005)
    return role


def _own_cell_failure_probe(flags: str) -> None:
    """The search process's cell raises while its child sends a result
    larger than a pipe buffer; prints what run_campaign raised."""
    search_pid = os.getpid()

    def cell(cfg, n, k, artifact_dir):
        if _meet(Path(flags), search_pid) == "search":
            raise GenerationFailed("own cell failed")
        return {"padding": "x" * 200_000}

    perturbrank.search._run_cell = cell
    cfg = CampaignConfig(
        n_range=(2, 2), K_range=(2, 3), samples_per_cell=1, seed=0, worker_count=2
    )
    try:
        run_campaign(cfg)
        error = None
    except GenerationFailed as exc:
        error = str(exc)
    print(json.dumps({"error": error, "active_children": len(multiprocessing.active_children())}))


def _killed_search_probe(flags: str) -> None:
    """The search process's cell never ends while its child, with a result
    larger than a pipe buffer, writes its pid and goes on to send."""
    search_pid = os.getpid()

    def cell(cfg, n, k, artifact_dir):
        if _meet(Path(flags), search_pid) == "search":
            time.sleep(600)
        pid_file = Path(flags) / "child.pid"
        pid_file.with_suffix(".tmp").write_text(str(os.getpid()), encoding="ascii")
        pid_file.with_suffix(".tmp").replace(pid_file)
        return {"padding": "x" * 200_000}

    perturbrank.search._run_cell = cell
    run_campaign(
        CampaignConfig(
            n_range=(2, 2), K_range=(2, 3), samples_per_cell=1, seed=0, worker_count=2
        )
    )


def _gone_or_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            # the state follows the parenthesized command name
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestCampaignConfig:
    def test_accepts_full_small_grid(self):
        cfg = CampaignConfig(n_range=(2, 5), K_range=(2, 5), samples_per_cell=200, seed=1)
        assert cfg.families == FAMILIES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_range": (1, 5)},
            {"n_range": (2, 9)},
            {"n_range": (4, 3)},
            {"K_range": (0, 2)},
            {"samples_per_cell": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"families": ()},
            {"families": ("markov_generator", "nope")},
            {"worker_count": 0},
            {"families": ("",)},
            {"families": ("markov_generator", "markov_generator")},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(n_range=(2, 3), K_range=(2, 3), samples_per_cell=5, seed=0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            CampaignConfig(**base)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_instance_seed(42, 3, 4, 7) == derive_instance_seed(42, 3, 4, 7)

    def test_sensitive_to_every_coordinate(self):
        base = derive_instance_seed(42, 3, 4, 7)
        assert derive_instance_seed(43, 3, 4, 7) != base
        assert derive_instance_seed(42, 2, 4, 7) != base
        assert derive_instance_seed(42, 3, 5, 7) != base
        assert derive_instance_seed(42, 3, 4, 8) != base

    def test_in_64_bit_range(self):
        for idx in range(50):
            s = derive_instance_seed(1, 2, 2, idx)
            assert 0 <= s < 2**64


class TestClassifyInstance:
    def test_w1_matches(self):
        verdict = _verdict(W1)
        assert isinstance(verdict, StructureReport)
        assert verdict.outcome == "match"
        assert verdict.breaches == ()
        assert verdict.rank_exact == 1

    def test_constant_diagonals_degenerate(self):
        spec = SystemSpec(
            n=2,
            K=2,
            D=RationalMatrix([[3, 3], [3, 3]]),
            A=RationalMatrix([[-1, 1], [1, -1]]),
        )
        verdict = _verdict(spec)
        assert verdict.outcome == "degenerate"
        assert verdict.rank_exact == 0

    def test_equal_nonconstant_diagonals_degenerate(self):
        # both directions carry diag(1, 2, 3): Psi_i h1 = (-1, 0, 1) != 0,
        # but the two pushed vectors coincide and span 1 < min(n-1, K) = 2
        # dimensions, so M is the rank-one multiple -2/9 of the all-ones
        # matrix and the rank law is not asserted
        spec = SystemSpec(n=3, K=2, D=RationalMatrix([[1, 2, 3], [1, 2, 3]]), A=TRIPLE_A)
        verdict = _verdict(spec)
        assert verdict.outcome == "degenerate"
        assert verdict.breaches == ()
        assert verdict.rank_exact == 1

    def test_affinely_dependent_diagonals_degenerate(self):
        # D_2 = 2 D_1 - 3 (1,1,1) pushes both directions onto one line:
        # Psi_2 h1 = 2 Psi_1 h1, so rank M = 1 below the generic prediction
        # of 2 even though neither direction is degenerate on its own.
        # The span test puts such hand-fed instances off the
        # general-position stratum, where the generator never samples.
        spec = SystemSpec(n=3, K=2, D=RationalMatrix([[1, 2, 4], [-1, 1, 5]]), A=PATH_A)
        verdict = _verdict(spec)
        assert verdict.outcome == "degenerate"
        assert verdict.rank_exact == 1
        assert verdict.predicted_rank == 2

    def test_generated_instances_within_rank_ceiling(self):
        for seed in range(6):
            spec, sd = generate_instance(
                GeneratorConfig(n=4, K=3, seed=seed, family=FAMILIES[seed % 2])
            )
            verdict = _verdict(spec, sd)
            assert verdict.rank_exact <= verdict.predicted_rank

    def test_breaches_never_change_the_outcome(self):
        # sweep a handful of generated instances; whenever a breach is
        # recorded the rank partition must still hold, and every breach
        # carries its offending numbers
        seen_kinds = set()
        for seed in range(40):
            spec, sd = generate_instance(
                GeneratorConfig(
                    n=2, K=3, seed=seed, family="similarity_transformed"
                )
            )
            verdict = _verdict(spec, sd)
            assert verdict.outcome in ("match", "degenerate", "violation")
            for detail in verdict.breaches:
                seen_kinds.add(detail["kind"])
                if detail["kind"] == "dissipativity":
                    assert detail["inertia"][0] > 0
                else:
                    assert detail["numeric_rank"] != detail["rank_exact"]
            if verdict.outcome == "match":
                assert verdict.rank_exact == verdict.predicted_rank
            elif verdict.outcome == "violation":
                assert verdict.rank_exact != verdict.predicted_rank
        # the similarity family is known to produce indefinite M sometimes;
        # losing that signal entirely would mean the check went dead
        assert "dissipativity" in seen_kinds

    def test_shipped_non_degenerate_violation(self, capsys):
        # n = 3, K = 1: the pushed vector is nonzero, so the instance is in
        # general position, yet it is isotropic for the quadratic form
        # Sym(S G) and M = 0 breaks the rank law
        path = os.path.join(
            os.path.dirname(__file__), os.pardir, "instances", "violation-n3-K1.json"
        )
        assert run_command(["analyze", path]) == 0
        structure = json.loads(capsys.readouterr().out)["structure"]
        assert structure["rank_exact"] == 0
        assert structure["predicted_rank"] == 1
        assert structure["degenerate"] is False
        assert structure["rank_matches_prediction"] is False
        assert _verdict(load_instance_file(path)).outcome == "violation"

    def test_generated_instances_never_degenerate(self):
        # the generator's span screen is the incremental form of the
        # degeneracy test, so no draw lands on the degenerate stratum
        for index in range(24):
            n, k = 2 + index % 3, 2 + (index // 3) % 3
            spec, sd = generate_instance(
                GeneratorConfig(n=n, K=k, seed=700 + index, family=FAMILIES[index % 2])
            )
            verdict = _verdict(spec, sd)
            assert verdict.outcome == "match"


# Hand-fed instances on and off the general-position stratum, with whether
# rank span{Psi_i h1} < min(n - 1, K) makes them degenerate.
AGREEMENT_CASES = {
    "w1": (W1, False),
    "n3-equal-diagonals": (
        SystemSpec(n=3, K=2, D=RationalMatrix([[1, 2, 3], [1, 2, 3]]), A=TRIPLE_A), True
    ),
    "n3-affinely-dependent": (
        SystemSpec(n=3, K=2, D=RationalMatrix([[1, 2, 4], [-1, 1, 5]]), A=PATH_A), True
    ),
    "n2-all-constant": (SystemSpec(n=2, K=2, D=RationalMatrix([[3, 3], [5, 5]]), A=W1.A), True),
    "n2-one-constant": (SystemSpec(n=2, K=2, D=RationalMatrix([[3, 3], [1, 2]]), A=W1.A), False),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_CASES))
def test_analyze_and_search_agree_on_degeneracy(name, tmp_path, capsys):
    spec, degenerate = AGREEMENT_CASES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(instance_to_dict(spec)), encoding="utf-8")
    assert run_command(["analyze", str(path)]) == 0
    structure = json.loads(capsys.readouterr().out)["structure"]
    verdict = _verdict(load_instance_file(str(path)))
    assert structure["degenerate"] is degenerate
    assert structure["rank_matches_prediction"] is (
        structure["rank_exact"] == structure["predicted_rank"]
    )
    assert (verdict.outcome == "degenerate") is degenerate
    if not degenerate:
        assert verdict.outcome == "match"


def _constructed_violation(spec: SystemSpec, sd, coeffs) -> SystemSpec | None:
    """spec with A0 replaced by A0 + x u wᵀ, x chosen so rank M drops to n - 2.

    R0 = G0 + h1 h1*ᵀ is the inverse of A0 + h1 h1*ᵀ.  With u = C coeffs
    for a basis C of W = ker h1*ᵀ and w = R0⁻ᵀ S R0 u, S = diag(h1* / h1),
    wᵀ h1 = h1*ᵀ u = 0, so the null pair stays.  Sherman-Morrison turns
    B = S G + (S G)ᵀ into B0 - 2 τ a aᵀ, with a = S R0 u, τ = x / (1 + x β)
    and β = wᵀ R0 u, and the matrix determinant lemma makes
    B|W = Cᵀ B C singular at τ* = 1 / (2 cᵀ (B0|W)⁻¹ c), c = Cᵀ a.  None
    where a denominator of the construction vanishes.
    """
    n = spec.n
    h1, h1_star = (tuple(m[0, j] for j in range(n)) for m in (sd.h1, sd.h1_star))
    outer = RationalMatrix(zip(h1)) @ RationalMatrix([h1_star])
    r0 = sd.G + outer
    s = RationalMatrix([[h1_star[i] / h1[i] if i == j else 0 for j in range(n)] for i in range(n)])
    kernel = nullspace(RationalMatrix([h1_star]))
    basis = RationalMatrix([[v[0, i] for v in kernel] for i in range(n)])
    u = basis @ RationalMatrix(zip(coeffs))
    a = s @ r0 @ u
    w = (spec.A + outer).transpose() @ a
    beta = (w.transpose() @ r0 @ u)[0, 0]
    sg = s @ sd.G
    restricted, c = basis.transpose() @ (sg + sg.transpose()) @ basis, basis.transpose() @ a
    det_coeffs, _, inverse = charpoly_adjugate(restricted)
    if det_coeffs[0, 0] == 0:
        return None
    quadratic = (c.transpose() @ inverse @ c)[0, 0]
    if quadratic == 0 or 2 * quadratic == beta:
        return None
    x = 1 / (2 * quadratic - beta)  # τ* / (1 - τ* β)
    scales = RationalMatrix([(x,) * n])
    return dataclasses.replace(spec, A=spec.A + (u @ w.transpose()).scale_columns(scales))


def test_constructed_violations_at_full_rank_K():
    # K = n - 1 puts the pushed vectors on all of W, so rank M = rank B|W,
    # and every A the certificate proves admissible is a violation with
    # rank n - 2.  The update leaves the Markov class, on which B|W is
    # negative definite and the rank law holds.
    coefficient_tuples = {
        n: [t for t in itertools.product(range(-2, 3), repeat=n - 1) if any(t)][:8]
        for n in (3, 4, 5)
    }
    built = rejected = 0
    for n, tuples in coefficient_tuples.items():
        for seed in (0, 1):
            base, sd = generate_instance(GeneratorConfig(n=n, K=n - 1, seed=seed))
            for coeffs in tuples:
                spec = _constructed_violation(base, sd, coeffs)
                if spec is None:
                    continue
                try:
                    witness_sd = validate_system(spec)
                except (KernelDimensionError, NotStable):
                    rejected += 1
                    continue
                built += 1
                verdict = _verdict(spec, witness_sd)
                assert witness_sd.h1 == sd.h1 and witness_sd.h1_star == sd.h1_star
                assert verdict.outcome == "violation"
                assert verdict.rank_exact == n - 2
    assert built + rejected == 48
    assert rejected < 8, (built, rejected)


@pytest.mark.parametrize(
    "name, seed, coeffs",
    [("violation-n3-K2.json", 74, (-2, -2)), ("violation-n4-K3.json", 150, (-2, 0, 0))],
)
def test_shipped_constructed_violation(name, seed, coeffs, capsys):
    # the shipped files are the witnesses with the shortest longest entry
    # that the construction gave on Markov bases with seeds 0..299 and
    # coefficients in -2..2
    path = os.path.join(os.path.dirname(__file__), os.pardir, "instances", name)
    shipped = load_instance_file(path)
    n = shipped.n
    base, sd = generate_instance(GeneratorConfig(n=n, K=n - 1, seed=seed))
    rebuilt = _constructed_violation(base, sd, coeffs)
    assert (rebuilt.A, rebuilt.D) == (shipped.A, shipped.D)
    assert run_command(["analyze", path]) == 0
    structure = json.loads(capsys.readouterr().out)["structure"]
    assert (structure["rank_exact"], structure["predicted_rank"]) == (n - 2, n - 1)
    assert structure["degenerate"] is False
    assert structure["rank_matches_prediction"] is False
    verdict = _verdict(shipped)
    assert (verdict.outcome, verdict.breaches) == ("violation", ())


class TestRunCampaign:
    def test_small_sweep_all_match(self):
        cfg = CampaignConfig(n_range=(2, 3), K_range=(2, 3), samples_per_cell=6, seed=7)
        report = run_campaign(cfg)
        assert report["verdict"] == "all_match"
        assert len(report["cells"]) == 4
        for cell in report["cells"]:
            assert (
                cell["matches"] + cell["degenerate"] + len(cell["violations"])
                == cell["samples"]
            )
            assert cell["violations"] == []
        # this sweep is known to hit indefinite-M similarity instances;
        # they are recorded as breaches without disturbing the verdict
        breaches = [b for cell in report["cells"] for b in cell["breaches"]]
        assert breaches
        assert all(b["kind"] == "dissipativity" for b in breaches)
        assert all(b["family"] == "similarity_transformed" for b in breaches)

    def test_markov_family_never_breaches_dissipativity(self):
        cfg = CampaignConfig(
            n_range=(2, 4),
            K_range=(2, 3),
            samples_per_cell=6,
            seed=7,
            families=("markov_generator",),
        )
        report = run_campaign(cfg)
        assert report["verdict"] == "all_match"
        assert all(cell["breaches"] == [] for cell in report["cells"])

    def test_reports_are_pure_functions_of_config(self):
        cfg = CampaignConfig(n_range=(2, 2), K_range=(2, 3), samples_per_cell=5, seed=11)
        first = run_campaign(cfg)
        second = run_campaign(cfg)
        first.pop("runtime_seconds")
        second.pop("runtime_seconds")
        assert first == second

    def test_worker_count_does_not_change_results(self, tmp_path):
        # a grid with breaches, so the cells that come back from the workers
        # carry instances, reports and artifacts
        outputs = []
        for workers in (1, 2, 3, 64):
            cfg = CampaignConfig(
                n_range=(2, 5), K_range=(2, 5), samples_per_cell=3, seed=7,
                worker_count=workers,
            )
            artifacts = tmp_path / f"workers-{workers}"
            report = run_campaign(cfg, artifact_dir=str(artifacts))
            report.pop("runtime_seconds")
            # worker_count is configuration echo, not result content
            report["config"].pop("worker_count")
            files = {path.name: path.read_bytes() for path in sorted(artifacts.iterdir())}
            outputs.append((dumps(report), files))
        assert sum(report["breach_totals"].values()) > 0
        assert len(outputs[0][1]) > 0
        assert all(output == outputs[0] for output in outputs)
        assert multiprocessing.active_children() == []

    def test_worker_pool_bounded_by_cell_count(self, monkeypatch):
        # the search process is one of the workers: W workers start W - 1
        # children, and never more processes run than there are cells
        started = []
        real_start = multiprocessing.Process.start

        def recording_start(process):
            started.append(process)
            real_start(process)

        monkeypatch.setattr(multiprocessing.Process, "start", recording_start)
        one_cell = CampaignConfig(
            n_range=(2, 2), K_range=(2, 2), samples_per_cell=1, seed=3, worker_count=5000
        )
        report = run_campaign(one_cell)
        counts = [len(started)]
        four_cells = dataclasses.replace(one_cell, n_range=(2, 3), K_range=(2, 3))
        run_campaign(four_cells)
        counts.append(len(started) - counts[0])
        assert counts == [0, 3]
        assert report["config"]["worker_count"] == 5000

    def test_failed_start_joins_the_started_children(self, monkeypatch):
        started = []
        real_start = multiprocessing.Process.start

        def start_once(process):
            if started:
                raise OSError("no process left")
            started.append(process)
            real_start(process)

        monkeypatch.setattr(multiprocessing.Process, "start", start_once)
        cfg = CampaignConfig(
            n_range=(2, 3), K_range=(2, 3), samples_per_cell=1, seed=3, worker_count=3
        )
        with pytest.raises(OSError, match="no process left"):
            run_campaign(cfg)
        assert len(started) == 1 and started[0].exitcode == 0
        assert multiprocessing.active_children() == []

    def test_non_empty_artifact_dir_rejected_before_any_instance(
        self, monkeypatch, tmp_path
    ):
        def never_called(gen_cfg):
            raise AssertionError("an instance ran")

        stale = tmp_path / "breach-dissipativity-n2-K2-index0.json"
        stale.write_text("{}", encoding="utf-8")
        monkeypatch.setattr("perturbrank.search.generate_instance", never_called)
        cfg = CampaignConfig(n_range=(2, 2), K_range=(2, 2), samples_per_cell=1, seed=0)
        with pytest.raises(ValueError, match="not empty"):
            run_campaign(cfg, artifact_dir=str(tmp_path))
        assert stale.read_text(encoding="utf-8") == "{}"

    def test_generation_failure_carries_cell_context(self, monkeypatch):
        def always_fails(gen_cfg):
            raise GenerationFailed("synthetic failure")

        monkeypatch.setattr("perturbrank.search.generate_instance", always_fails)
        cfg = CampaignConfig(n_range=(2, 2), K_range=(2, 2), samples_per_cell=1, seed=0)
        with pytest.raises(GenerationFailed, match=r"cell n=2, K=2, index=0"):
            run_campaign(cfg)

    def test_degenerate_instances_are_counted_and_pass(self, monkeypatch, tmp_path, capsys):
        # every draw is TRIPLE_A with K equal diagonals (1, 2, 3): rank M is
        # 1 < min(n - 1, K) = 2, which the campaign counts as degenerate
        def degenerate(gen_cfg):
            spec = SystemSpec(
                n=3, K=gen_cfg.K, D=RationalMatrix([[1, 2, 3]] * gen_cfg.K), A=TRIPLE_A
            )
            return spec, validate_system(spec)

        monkeypatch.setattr("perturbrank.search.generate_instance", degenerate)
        out = tmp_path / "r.json"
        rc = run_command(
            ["search", "--n-min", "3", "--n-max", "3", "--k-min", "2", "--k-max", "3",
             "--samples", "3", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["verdict"] == "all_match"
        assert [(c["K"], c["degenerate"], c["matches"]) for c in report["cells"]] == [
            (2, 3, 0), (3, 3, 0)
        ]
        assert "(0 matches, 6 degenerate, 0 violations in 6 samples)" in capsys.readouterr().out

    def test_similarity_redraws_exhausted_exits_one(self, monkeypatch, tmp_path, capsys):
        # a pre-screen that rejects every transform spends the attempt
        # budget of _sample_interaction
        monkeypatch.setattr("perturbrank.model._random_similar", lambda rng, base, bound: None)
        gen = GeneratorConfig(n=3, K=2, seed=0, family=SIMILARITY_FAMILY)
        with pytest.raises(GenerationFailed) as exc:
            generate_instance(gen)
        assert str(exc.value) == "similarity transform kept zeroing a null-vector entry"
        rc = run_command(
            ["search", "--n-min", "3", "--n-max", "3", "--k-min", "2", "--k-max", "2",
             "--samples", "1", "--seed", "0", "--families", SIMILARITY_FAMILY,
             "--out", str(tmp_path / "r.json")]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: cell n=3, K=2, index=0: similarity transform kept zeroing a null-vector"
            " entry\n"
        )

    @FORK_ONLY
    def test_child_generation_failure_carries_cell_context(self, monkeypatch, tmp_path):
        search_pid = os.getpid()
        real_generate = perturbrank.search.generate_instance

        def fails_in_child(gen_cfg):
            if _meet(tmp_path, search_pid) == "child":
                raise GenerationFailed("synthetic failure")
            return real_generate(gen_cfg)

        monkeypatch.setattr("perturbrank.search.generate_instance", fails_in_child)
        cfg = CampaignConfig(
            n_range=(2, 2), K_range=(2, 3), samples_per_cell=1, seed=0, worker_count=2
        )
        with pytest.raises(GenerationFailed, match=r"cell n=2, K=[23], index=0: synthetic"):
            run_campaign(cfg)
        assert multiprocessing.active_children() == []

    @FORK_ONLY
    def test_own_cell_failure_reads_large_child_result(self, tmp_path):
        # a child blocks in send until its result is read; joining it first
        # would hang, so the probe runs in a subprocess with a timeout
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        package_root = os.path.dirname(os.path.dirname(perturbrank.search.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((package_root, tests_dir)))
        probe = [sys.executable, "-c", "import sys, test_search; "
                 "test_search._own_cell_failure_probe(sys.argv[1])", str(tmp_path)]
        with subprocess.Popen(
            probe, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=60)
            finally:
                # a hung probe would leave its child behind
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 0, err
        assert json.loads(out) == {"error": "own cell failed", "active_children": 0}

    @FORK_ONLY
    def test_killed_search_process_leaves_no_child(self, tmp_path):
        # a child inherits the read end of its own pipe through fork; unless
        # it closes it, a search process killed mid-run leaves the child
        # blocked forever in sending a result larger than the pipe buffer
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        package_root = os.path.dirname(os.path.dirname(perturbrank.search.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((package_root, tests_dir)))
        probe = [sys.executable, "-c", "import sys, test_search; "
                 "test_search._killed_search_probe(sys.argv[1])", str(tmp_path)]
        pid_file = tmp_path / "child.pid"
        with open(tmp_path / "stderr.txt", "w", encoding="utf-8") as err, subprocess.Popen(
            probe, stdout=subprocess.DEVNULL, stderr=err, env=env, start_new_session=True
        ) as proc:
            try:
                deadline = time.monotonic() + 60
                while not pid_file.exists() and proc.poll() is None:
                    assert time.monotonic() < deadline, "the child never ran its cell"
                    time.sleep(0.01)
                assert pid_file.exists(), (tmp_path / "stderr.txt").read_text()
                child = int(pid_file.read_text(encoding="ascii"))
                os.kill(proc.pid, signal.SIGKILL)  # the search process alone
                proc.wait()
                deadline = time.monotonic() + 10
                while not _gone_or_zombie(child) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert _gone_or_zombie(child), "the child outlived the search process"
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

    @FORK_ONLY
    def test_child_exit_without_result_exits_one(self, monkeypatch, tmp_path, capsys):
        search_pid = os.getpid()
        real_run_cell = perturbrank.search._run_cell

        def exits_in_child(cfg, n, k, artifact_dir):
            if _meet(tmp_path, search_pid) == "child":
                os._exit(3)
            return real_run_cell(cfg, n, k, artifact_dir)

        monkeypatch.setattr("perturbrank.search._run_cell", exits_in_child)
        rc = run_command(
            [
                "search",
                "--n-min", "2", "--n-max", "2",
                "--k-min", "2", "--k-max", "3",
                "--samples", "1", "--seed", "0",
                "--workers", "2",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 1
        assert re.search(r"^error: .*exited with code 3$", capsys.readouterr().err, re.M)
        assert multiprocessing.active_children() == []

    def test_violation_artifact_replays_identically(self, monkeypatch, tmp_path):
        # no known instance breaks the rank law, so the classifier is made
        # to call this degenerate one a violation
        rigged = SystemSpec(
            n=3, K=2, D=RationalMatrix([[1, 2, 3], [1, 2, 3]]), A=TRIPLE_A, label="rigged"
        )

        def fixed_instance(gen_cfg):
            return rigged, validate_system(rigged)

        def always_violation(ts):
            return dataclasses.replace(analyze_structure(ts), outcome="violation")

        monkeypatch.setattr("perturbrank.search.generate_instance", fixed_instance)
        monkeypatch.setattr("perturbrank.search.analyze_structure", always_violation)
        cfg = CampaignConfig(n_range=(3, 3), K_range=(2, 2), samples_per_cell=1, seed=5)
        report = run_campaign(cfg, artifact_dir=str(tmp_path))
        assert report["verdict"] == "violations_found"
        (cell,) = report["cells"]
        (violation,) = cell["violations"]
        assert violation["artifact"] == "violation-n3-K2-index0.json"

        path = os.path.join(str(tmp_path), violation["artifact"])
        assert os.path.exists(path)
        replayed = load_instance_file(path)
        assert replayed == rigged
        again = _verdict(replayed)
        assert again.rank_exact == violation["report"]["structure"]["rank_exact"] == 1

    def test_violation_report_comes_from_the_single_pass(self, monkeypatch):
        # force the first instance of a tiny campaign to be a violation; its
        # report must equal a fresh analysis, and every classified A must be
        # certified (one characteristic polynomial) exactly once; similarity
        # redraws may add passes on other candidate matrices
        charpolys = []
        original_charpoly = perturbrank.model.charpoly_adjugate

        def counted_charpoly(a):
            charpolys.append(a)
            return original_charpoly(a)

        generated = []
        original_generate = perturbrank.search.generate_instance

        def recorded_generate(gen_cfg):
            spec, sd = original_generate(gen_cfg)
            generated.append(spec)
            return spec, sd

        classified = []

        def first_violates(ts):
            verdict = analyze_structure(ts)
            classified.append(ts)
            if len(classified) == 1:
                verdict = dataclasses.replace(verdict, outcome="violation")
            return verdict

        monkeypatch.setattr(perturbrank.model, "charpoly_adjugate", counted_charpoly)
        monkeypatch.setattr("perturbrank.search.generate_instance", recorded_generate)
        monkeypatch.setattr("perturbrank.search.analyze_structure", first_violates)
        cfg = CampaignConfig(n_range=(2, 3), K_range=(2, 2), samples_per_cell=2, seed=13)
        report = run_campaign(cfg)
        monkeypatch.undo()

        assert len(classified) == len(generated) == 4
        for spec, ts in zip(generated, classified):
            assert sum(a == spec.A for a in charpolys) == 1
            assert ts == build_M(spec, validate_system(spec))
        assert report["verdict"] == "violations_found"
        (violation,) = report["cells"][0]["violations"]
        spec, _ = generate_instance(
            GeneratorConfig(
                n=2, K=2, seed=violation["instance_seed"], family=violation["family"]
            )
        )
        assert spec == generated[0]
        sd = validate_system(spec)
        ts = build_M(spec, sd)
        fresh = build_report(spec, sd, ts, analyze_structure(ts))
        assert dumps(violation["report"]) == dumps(fresh)

    def test_report_and_artifacts_pinned_by_digest(self, monkeypatch, tmp_path):
        # a grid with dissipativity breaches, and its first instance forced
        # to a violation, so every report field and artifact kind is pinned
        classified = []

        def first_violates(ts):
            verdict = analyze_structure(ts)
            classified.append(ts)
            if len(classified) == 1:
                verdict = dataclasses.replace(verdict, outcome="violation")
            return verdict

        monkeypatch.setattr("perturbrank.search.analyze_structure", first_violates)
        cfg = CampaignConfig(n_range=(2, 3), K_range=(2, 3), samples_per_cell=6, seed=7)
        report = run_campaign(cfg, artifact_dir=str(tmp_path))
        assert report["totals"]["violations"] == 1
        assert report["breach_totals"]["dissipativity"] > 0
        report.pop("runtime_seconds")
        assert hashlib.sha256(dumps(report).encode("utf-8")).hexdigest() == REPORT_DIGEST
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
        assert digest.hexdigest() == ARTIFACT_DIGEST

    def test_breach_artifact_replays_identically(self, tmp_path):
        cfg = CampaignConfig(n_range=(2, 3), K_range=(2, 3), samples_per_cell=6, seed=7)
        report = run_campaign(cfg, artifact_dir=str(tmp_path))
        breaches = [b for cell in report["cells"] for b in cell["breaches"]]
        assert breaches
        for breach in breaches:
            assert breach["artifact"] is not None
            assert breach["artifact"].startswith("breach-dissipativity-")
            path = os.path.join(str(tmp_path), breach["artifact"])
            assert os.path.exists(path)
            replayed = load_instance_file(path)
            again = _verdict(replayed)
            kinds = [detail["kind"] for detail in again.breaches]
            assert breach["kind"] in kinds


class TestReportToDict:
    def test_shape_and_totals(self):
        cfg = CampaignConfig(n_range=(2, 2), K_range=(2, 2), samples_per_cell=3, seed=1)
        data = run_campaign(cfg)
        assert data["format_version"] == 1
        assert data["verdict"] == "all_match"
        assert data["totals"] == {
            "samples": 3,
            "matches": 3,
            "degenerate": 0,
            "violations": 0,
        }
        assert set(data["breach_totals"]) == {"dissipativity", "rank_agreement"}
        assert "not a proof" in data["evidence_note"]
        json.dumps(data)  # must be serializable as-is

    def test_config_echo(self):
        cfg = CampaignConfig(
            n_range=(2, 3),
            K_range=(2, 2),
            samples_per_cell=2,
            seed=9,
            families=("markov_generator",),
        )
        data = run_campaign(cfg)
        assert data["config"] == {
            "n_range": [2, 3],
            "K_range": [2, 2],
            "samples_per_cell": 2,
            "seed": 9,
            "families": ["markov_generator"],
            "worker_count": 1,
        }
