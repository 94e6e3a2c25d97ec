"""End-to-end tests for the command-line interface and its exit codes."""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import perturbrank
from perturbrank.asymptotics import ProfileQuery, build_M, leading_term_eval
from perturbrank.cli import run_command
from perturbrank.formats import load_instance_file
from perturbrank.model import validate_system

W1_DICT = {
    "format_version": 1,
    "n": 2,
    "K": 2,
    "A": [["-1", "1"], ["1", "-1"]],
    "D": [["1", "0"], ["0", "1"]],
    "label": "w1",
}


@pytest.fixture
def w1_path(tmp_path):
    path = tmp_path / "w1.json"
    path.write_text(json.dumps(W1_DICT), encoding="utf-8")
    return str(path)


def _write_instance(tmp_path, name, **overrides):
    data = dict(W1_DICT)
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_w1_report_values(self, w1_path, capsys):
        assert run_command(["analyze", w1_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["transfer"]["v"] == ["1/2", "1/2"]
        assert data["transfer"]["G"] == [["-1/4", "1/4"], ["1/4", "-1/4"]]
        assert data["transfer"]["M"] == [["-1/8", "1/8"], ["1/8", "-1/8"]]
        assert data["structure"]["rank_exact"] == 1
        eigs = data["structure"]["eigenvalues"]
        assert abs(eigs[0] + 0.25) < 1e-10 and abs(eigs[1]) < 1e-10

    def test_out_flag_writes_report(self, w1_path, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert run_command(["analyze", w1_path, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "rank 1 (predicted 1)" in stdout
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["structure"]["rank_exact"] == 1

    def test_byte_identical_reports(self, w1_path, capsys):
        run_command(["analyze", w1_path])
        first = capsys.readouterr().out
        run_command(["analyze", w1_path])
        second = capsys.readouterr().out
        assert first == second

    def test_shipped_instance(self, capsys):
        shipped = os.path.join(
            os.path.dirname(__file__), os.pardir, "instances", "w1.json"
        )
        assert run_command(["analyze", shipped]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["transfer"]["M"] == [["-1/8", "1/8"], ["1/8", "-1/8"]]

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert run_command(["analyze", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_denominator_exits_one(self, tmp_path, capsys):
        path = _write_instance(tmp_path, "bad.json", A=[["1/0", "1"], ["1", "-1"]])
        assert run_command(["analyze", path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "A[0][0]" in err

    def test_dimension_mismatch_exits_one(self, tmp_path, capsys):
        path = _write_instance(
            tmp_path, "bad.json", A=[["-1", "1", "0"], ["1", "-1", "0"]]
        )
        assert run_command(["analyze", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_float_entry_exits_one(self, tmp_path, capsys):
        path = _write_instance(tmp_path, "bad.json", A=[[-0.5, "1"], ["1", "-1"]])
        assert run_command(["analyze", path]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["1\n", "\u0661", "1/\u0662"])
    def test_non_canonical_rational_exits_one(self, tmp_path, capsys, entry):
        # A trailing newline and non-ASCII digits both parse as Fractions,
        # but neither is of the form 'p' or 'p/q' with ASCII digits.
        path = _write_instance(tmp_path, "bad.json", D=[[entry, "0"], ["0", "1"]])
        assert run_command(["analyze", path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "D[0][0]" in err

    def test_oversized_rational_names_its_entry(self, tmp_path, capsys):
        # more digits than int() converts by default
        path = _write_instance(
            tmp_path, "bad.json", D=[["1", "0"], ["0", "1" + "0" * 5000]]
        )
        assert run_command(["analyze", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: D[1][1]: ")
        assert len(err) < 300

    def test_oversized_json_integer_names_its_file(self, tmp_path, capsys):
        # an integer literal, not a string: json.loads itself refuses it
        path = _write_instance(tmp_path, "bad.json", D=[[1, 0], [0, "big"]])
        with open(path, encoding="utf-8") as fh:
            text = fh.read().replace('"big"', "1" + "0" * 5000)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert run_command(["analyze", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert len(err) < 300

    def test_non_utf8_file_names_itself(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(W1_DICT).encode("utf-16-le"))
        assert run_command(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not UTF-8 text")

    @pytest.mark.parametrize(
        "entry", ["x" * 100_000, "1/" + "0" * 4000], ids=["letters", "zero-denominator"]
    )
    def test_rejected_rational_echo_is_bounded(self, tmp_path, capsys, entry):
        path = _write_instance(tmp_path, "bad.json", D=[[entry, "0"], ["0", "1"]])
        assert run_command(["analyze", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: D[0][0]: ")
        assert len(err.encode()) < 1000


class TestUsageErrors:
    def test_missing_argument_remapped_to_one(self, capsys):
        assert run_command(["analyze"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run_command(["frobnicate"]) == 1
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert run_command([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run_command(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("analyze", "search", "symbolic", "phi0", "residual"):
            assert command in out

    def test_seed_is_mandatory_for_search(self, tmp_path, capsys):
        rc = run_command(
            [
                "search",
                "--n-min", "2", "--n-max", "2",
                "--k-min", "2", "--k-max", "2",
                "--samples", "1",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 1
        assert "--seed" in capsys.readouterr().err


class TestSearchCommand:
    def test_markov_campaign_all_match(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        rc = run_command(
            [
                "search",
                "--n-min", "2", "--n-max", "2",
                "--k-min", "2", "--k-max", "2",
                "--samples", "2", "--seed", "1",
                "--families", "markov_generator",
                "--out", out,
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "verdict: all_match" in stdout
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["verdict"] == "all_match"
        assert data["config"]["families"] == ["markov_generator"]
        # clean campaign: the artifact directory is not left behind
        assert not os.path.exists(str(tmp_path / "report-artifacts"))

    def test_breach_artifacts_are_kept(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.json")
        rc = run_command(
            [
                "search",
                "--n-min", "2", "--n-max", "3",
                "--k-min", "2", "--k-max", "3",
                "--samples", "6", "--seed", "7",
                "--out", out,
            ]
        )
        assert rc == 0  # breaches are findings, not rank-law violations
        stdout = capsys.readouterr().out
        assert "verdict: all_match" in stdout
        assert "invariant breaches recorded" in stdout
        artifact_dir = str(tmp_path / "sweep-artifacts")
        names = os.listdir(artifact_dir)
        assert names and all(n.startswith("breach-dissipativity-") for n in names)
        # every artifact replays through the ordinary instance parser
        for name in names:
            load_instance_file(os.path.join(artifact_dir, name))

    def test_reused_output_path_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        argv = [
            "search",
            "--n-min", "2", "--n-max", "3",
            "--k-min", "2", "--k-max", "3",
            "--samples", "6", "--seed", "7",
            "--out", out,
        ]
        assert run_command(argv) == 0
        artifact_dir = tmp_path / "r-artifacts"
        first = {p.name: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert any(name.startswith("breach-") for name in first)
        capsys.readouterr()

        argv[argv.index("--seed") + 1] = "8"
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and str(artifact_dir) in captured.err
        after = {p.name: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert after == first

    def test_exit_two_on_rank_violations(self, tmp_path, monkeypatch):
        report = {
            "verdict": "violations_found",
            "totals": {
                "samples": 1, "matches": 0, "degenerate": 0, "violations": 1,
            },
            "breach_totals": {"dissipativity": 0, "rank_agreement": 0},
        }

        def fake_run_campaign(cfg, artifact_dir=None):
            os.makedirs(artifact_dir, exist_ok=True)
            return report

        monkeypatch.setattr("perturbrank.cli.run_campaign", fake_run_campaign)
        rc = run_command(
            [
                "search",
                "--n-min", "2", "--n-max", "2",
                "--k-min", "2", "--k-max", "2",
                "--samples", "1", "--seed", "0",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        # the report is written as run_campaign returned it
        assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8")) == report

    def test_workers_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERTURB_RANK_WORKERS", "2")
        out = str(tmp_path / "r.json")
        rc = run_command(
            [
                "search",
                "--n-min", "2", "--n-max", "2",
                "--k-min", "2", "--k-max", "2",
                "--samples", "1", "--seed", "4",
                "--families", "markov_generator",
                "--out", out,
            ]
        )
        assert rc == 0
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh)["config"]["worker_count"] == 2

    def test_workers_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERTURB_RANK_WORKERS", "2")
        out = str(tmp_path / "r.json")
        rc = run_command(
            [
                "search",
                "--n-min", "2", "--n-max", "2",
                "--k-min", "2", "--k-max", "2",
                "--samples", "1", "--seed", "4",
                "--families", "markov_generator",
                "--workers", "1",
                "--out", out,
            ]
        )
        assert rc == 0
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh)["config"]["worker_count"] == 1

    def test_workers_env_invalid(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PERTURB_RANK_WORKERS", "many")
        rc = run_command(
            [
                "search",
                "--n-min", "2", "--n-max", "2",
                "--k-min", "2", "--k-max", "2",
                "--samples", "1", "--seed", "0",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 1
        assert "PERTURB_RANK_WORKERS" in capsys.readouterr().err

    def test_out_of_range_grid_exits_one(self, tmp_path, capsys):
        rc = run_command(
            [
                "search",
                "--n-min", "1", "--n-max", "2",
                "--k-min", "2", "--k-max", "2",
                "--samples", "1", "--seed", "0",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_family_exits_one(self, tmp_path, capsys):
        rc = run_command(
            [
                "search",
                "--n-min", "2", "--n-max", "2",
                "--k-min", "2", "--k-max", "2",
                "--samples", "1", "--seed", "0",
                "--families", "nope",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "families", ["", "markov_generator,", "markov_generator,markov_generator"]
    )
    def test_empty_or_repeated_family_exits_one(self, tmp_path, capsys, families):
        out = tmp_path / "r.json"
        rc = run_command(
            [
                "search",
                "--n-min", "2", "--n-max", "2",
                "--k-min", "2", "--k-max", "2",
                "--samples", "1", "--seed", "0",
                "--families", families,
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestSymbolicCommand:
    def test_k2_prints_verified_identity(self, capsys):
        assert run_command(["symbolic", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "verified identically" in out
        assert "zero eigenvalue multiplicity: 1" in out

    def test_out_file(self, tmp_path, capsys):
        out = str(tmp_path / "sym.json")
        assert run_command(["symbolic", "--k", "3", "--out", out]) == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["K"] == 3
        assert data["rank_one_identity"] is True
        assert data["spectrum"]["zero_multiplicity"] == 2

    def test_k_beyond_limit_exits_one(self, capsys):
        assert run_command(["symbolic", "--k", "9"]) == 1
        assert "error:" in capsys.readouterr().err


class TestProfileCommands:
    def test_phi0_peak_value(self, w1_path, capsys):
        # at x = v t the comoving point is the origin: phi0 = sqrt(det0/det)
        rc = run_command(
            [
                "phi0",
                "--instance", w1_path,
                "--sigma", "1", "--t", "1", "--eps", "0.1",
                "--amplitude", "1", "--point", "0.5,0.5",
            ]
        )
        assert rc == 0
        value = json.loads(capsys.readouterr().out)
        expected = math.sqrt(1.0 / 1.5)  # det Sigma_t = det(I - 2Mt) = 3/2
        assert value == pytest.approx([expected, expected], rel=1e-12)

    def test_phi0_matches_library(self, w1_path, capsys):
        argv = [
            "phi0",
            "--instance", w1_path,
            "--sigma", "1.5", "--t", "0.7", "--eps", "0.05",
            "--amplitude", "2", "--point", "0.41,0.29",
        ]
        assert run_command(argv) == 0
        cli_value = json.loads(capsys.readouterr().out)
        spec = load_instance_file(w1_path)[0]
        sd = validate_system(spec)
        ts = build_M(spec, sd)
        q = ProfileQuery(
            epsilon=0.05, t=0.7, x=(0.41, 0.29), sigma0=1.5, amplitude=2.0
        )
        assert cli_value == leading_term_eval(spec, sd, ts, q)

    def test_residual_is_second_order_small(self, w1_path, capsys):
        rc = run_command(
            [
                "residual",
                "--instance", w1_path,
                "--t", "1", "--zeta", "0.3,-0.2", "--h", "0.01",
            ]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out) < 1e-5

    @pytest.mark.parametrize("h", ["1e-170", "1e-100"])
    def test_residual_step_whose_square_underflows(self, w1_path, capsys, h):
        # 1e-170: h * h underflows; 1e-100: t + h rounds back to t = 1
        rc = run_command(
            ["residual", "--instance", w1_path, "--t", "1", "--zeta", "0,0", "--h", h]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: step h = {h} is too small")

    def test_residual_wrong_zeta_length(self, w1_path, capsys):
        rc = run_command(
            ["residual", "--instance", w1_path, "--t", "1", "--zeta", "0.3", "--h", "0.01"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_phi0_rejects_bad_point_string(self, w1_path, capsys):
        rc = run_command(
            [
                "phi0",
                "--instance", w1_path,
                "--sigma", "1", "--t", "1", "--eps", "0.1",
                "--amplitude", "1", "--point", "a,b",
            ]
        )
        assert rc == 1
        assert "comma-separated numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["residual", "--t", "nan", "--zeta", "0.3,-0.2", "--h", "0.01"],
            ["residual", "--t", "1", "--zeta", "inf,0", "--h", "0.01"],
            ["residual", "--t", "1", "--zeta", "0.3,-0.2", "--h", "inf"],
            ["phi0", "--sigma", "1", "--t", "1", "--eps", "0.1",
             "--amplitude", "1", "--point", "nan,0"],
            ["phi0", "--sigma", "inf", "--t", "1", "--eps", "0.1",
             "--amplitude", "1", "--point", "0.5,0.5"],
            ["phi0", "--sigma", "1", "--t", "1", "--eps", "inf",
             "--amplitude", "1", "--point", "0.5,0.5"],
        ],
        ids=["t-nan", "zeta-inf", "h-inf", "point-nan", "sigma-inf", "eps-inf"],
    )
    def test_non_finite_inputs_exit_one(self, w1_path, capsys, argv):
        rc = run_command([argv[0], "--instance", w1_path, *argv[1:]])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["phi0", "--sigma", "1e200", "--t", "1", "--eps", "0.1",
             "--amplitude", "1", "--point", "0.5,0.5"],
            ["phi0", "--sigma", "1e150", "--t", "1", "--eps", "0.1",
             "--amplitude", "1", "--point", "0.5,0.5"],
            ["residual", "--sigma", "1e200", "--t", "1", "--zeta", "0.3,-0.2", "--h", "0.01"],
            ["residual", "--sigma", "1e150", "--t", "1", "--zeta", "0.3,-0.2", "--h", "0.01"],
            ["phi0", "--sigma", "1", "--t", "1e308", "--eps", "1",
             "--amplitude", "1", "--point", "0,0"],
        ],
        # sigma 1e200 and 1e150 overflow sigma0 ** (2K), which is checked
        # before any numpy arithmetic, and t 1e308 overflows the covariance
        # (NaN determinant); numpy's overflow warnings must not leak out
        ids=["phi0-sigma-1e200", "phi0-sigma-1e150", "residual-sigma-1e200",
             "residual-sigma-1e150", "phi0-t-1e308"],
    )
    def test_float_overflow_exits_one(self, w1_path, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_command([argv[0], "--instance", w1_path, *argv[1:]])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [str(w.message) for w in caught] == []
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        if "--sigma" in argv and argv[argv.index("--sigma") + 1] != "1":
            assert "sigma0 ** 4 overflows" in lines[0]

    def test_phi0_rejects_nonpositive_epsilon(self, w1_path, capsys):
        rc = run_command(
            [
                "phi0",
                "--instance", w1_path,
                "--sigma", "1", "--t", "1", "--eps", "0",
                "--amplitude", "1", "--point", "0,0",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def _declared_scripts():
    """The ``[project.scripts]`` table of the checkout's ``pyproject.toml``.

    Read line by line: ``tomllib`` only exists from Python 3.11, and the
    package supports 3.10.
    """
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    scripts = {}
    in_table = False
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("["):
                in_table = line == "[project.scripts]"
            elif in_table and "=" in line:
                name, target = line.split("=", 1)
                scripts[name.strip()] = target.strip().strip('"')
    return scripts


def _run_python(*args):
    """Run a child interpreter that imports the package this test imported."""
    package_root = os.path.dirname(os.path.dirname(perturbrank.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_console_script_entry_point(w1_path):
    # the declared script and ``python -m perturbrank`` both call cli.main
    assert _declared_scripts()["perturbrank"] == "perturbrank.cli:main"
    proc = _run_python("-m", "perturbrank", "analyze", w1_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["structure"]["rank_exact"] == 1


def test_module_entry_point_missing_file_exits_one(tmp_path):
    proc = _run_python("-m", "perturbrank", "analyze", str(tmp_path / "absent.json"))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_import_does_not_run_module_entry_point():
    proc = _run_python(
        "-c", "import sys, perturbrank; print('perturbrank.__main__' in sys.modules)"
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


_IMPORT_SET_PROBE = """
import contextlib, io, json, sys
from perturbrank.cli import run_command

w1, out = sys.argv[1:]
lazy = ("numpy", "concurrent.futures", "multiprocessing")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        run_command(["analyze", w1]),
        run_command(["symbolic", "--k", "2"]),
        run_command(["search", "--n-min", "2", "--n-max", "2", "--k-min", "2",
                     "--k-max", "2", "--samples", "1", "--seed", "0",
                     "--workers", "1", "--out", out]),
    ]
    exact = [m for m in lazy if m in sys.modules]
    codes.append(run_command(["phi0", "--instance", w1, "--sigma", "1", "--t", "1",
                              "--eps", "1", "--amplitude", "1", "--point", "0,0"]))
print(json.dumps({"codes": codes, "exact": exact, "phi0": "numpy" in sys.modules}))
"""


def test_exact_commands_load_neither_numpy_nor_the_process_pool(tmp_path):
    # a cold start of analyze, symbolic and a one-worker search pays for
    # neither import; the float Gaussian of phi0 still loads numpy
    w1 = os.path.join(os.path.dirname(__file__), os.pardir, "instances", "w1.json")
    proc = _run_python("-c", _IMPORT_SET_PROBE, w1, str(tmp_path / "campaign.json"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "exact": [], "phi0": True}


@pytest.mark.skipif(
    shutil.which("perturbrank") is None, reason="no perturbrank script on PATH"
)
def test_installed_console_script(w1_path):
    proc = subprocess.run(
        ["perturbrank", "analyze", w1_path], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["structure"]["rank_exact"] == 1
    assert proc.stdout == _run_python("-m", "perturbrank", "analyze", w1_path).stdout
