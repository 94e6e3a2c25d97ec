"""End-to-end tests for the command-line interface and its exit codes."""

import json
import math
import os
import random
import shutil
import subprocess
import sys
import warnings

import pytest

import perturbrank
from perturbrank import cli
from perturbrank.asymptotics import ProfileQuery, build_M, leading_term_eval
from perturbrank.cli import run_command
from perturbrank.exact_linalg import INSTANCE_DIGIT_LIMIT
from perturbrank.formats import dumps, instance_to_dict, load_instance_file
from perturbrank.model import FAMILIES, GeneratorConfig, generate_instance, validate_system

from common import extreme_float

W1_DICT = {
    "format_version": 1,
    "n": 2,
    "K": 2,
    "A": [["-1", "1"], ["1", "-1"]],
    "D": [["1", "0"], ["0", "1"]],
    "label": "w1",
}


HUGE = "1" + "0" * 400
HUGE_D = [[HUGE, "0"], ["0", "1"]]


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

    @pytest.mark.parametrize("version", [True, 1.0], ids=["boolean", "float"])
    def test_format_version_must_be_an_integer(self, tmp_path, capsys, version):
        # True == 1.0 == 1 in Python, but only the integer is the version
        path = _write_instance(tmp_path, "bad.json", format_version=version)
        assert run_command(["analyze", path]) == 1
        assert capsys.readouterr().err.startswith("error: format_version: expected an integer")

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
        assert err.startswith(f"error: {path!r:.60}: invalid JSON")
        assert len(err) < 300

    def test_non_utf8_file_names_itself(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(W1_DICT).encode("utf-16-le"))
        assert run_command(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {str(path)!r:.60}: not UTF-8 text")

    def test_long_path_is_echoed_bounded(self, tmp_path, capsys):
        deep = tmp_path.joinpath(*(["d" * 200] * 5))
        deep.mkdir(parents=True)
        path = deep / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert len(str(path)) > 1000
        assert run_command(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "invalid JSON" in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize(
        "big, field",
        [
            ("1" * 1500 + "/" + "3" * 1501, "A[0][0]"),
            ("1" * 1000, "A[1][0]"),
            (int("1" * 1995), "D[0][0]"),
        ],
        ids=["rate-1500-over-1501", "rate-1000", "json-integer-speed"],
    )
    def test_instance_over_the_digit_limit_names_its_field(self, tmp_path, capsys, big, field):
        # each rejected instance is admissible; the first is the Markov
        # generator whose report once failed to serialise
        if isinstance(big, int):
            path = _write_instance(tmp_path, "big.json", D=[[big, 0], [0, 1]])
        else:
            path = _write_instance(tmp_path, "big.json", A=[["-" + big, "1"], [big, "-1"]])
        assert run_command(["analyze", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {field}: the entries of A and D have more than "
            f"{INSTANCE_DIGIT_LIMIT} digits in all\n"
        )

    def test_instance_at_the_digit_limit_is_analyzed(self, tmp_path, capsys):
        # the entries of A and D spend exactly the limit, half of it on one
        # speed, which M holds squared; each value is near 1, so M stays
        # in float range, and the report still serialises
        def near_one(digits):
            return f"{10 ** (digits - 1) + 1}/{10 ** (digits - 1)}"

        a = INSTANCE_DIGIT_LIMIT // 8
        x, d = near_one(a), near_one((INSTANCE_DIGIT_LIMIT - 10 - 4 * a) // 2)
        path = _write_instance(
            tmp_path, "limit.json", A=[["-" + x, "1"], [x, "-1"]], D=[[d, "0"], ["0", "1"]]
        )
        assert run_command(["analyze", path]) == 0
        assert json.loads(capsys.readouterr().out)["structure"]["rank_exact"] == 1

    @pytest.mark.parametrize(
        "overrides, prefix",
        [
            ({"D": [["x" * 100_000, "0"], ["0", "1"]]}, "error: D[0][0]: "),
            ({"D": [["1/" + "0" * 4000, "0"], ["0", "1"]]}, "error: D[0][0]: "),
            ({"format_version": "x" * 100_000}, "error: format_version: "),
            ({"y" * 100_000: 0}, "error: unknown instance fields: "),
            ({"n": 10**4000}, "error: A: expected 1000"),
            ({"K": 10**4000}, "error: D: expected 1000"),
        ],
        ids=["letters", "zero-denominator", "format-version", "unknown-field",
             "n-huge", "K-huge"],
    )
    def test_rejected_rational_echo_is_bounded(self, tmp_path, capsys, overrides, prefix):
        path = _write_instance(tmp_path, "bad.json", **overrides)
        assert run_command(["analyze", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert len(err.encode()) < 1000

    @pytest.mark.parametrize(
        "data, message",
        [
            (dict(W1_DICT, D=[[True, "0"], ["0", "1"]]),
             "D[0][0]: expected a rational string, got a boolean"),
            (dict(W1_DICT, D=["1", ["0", "1"]]), "D[0]: expected an array"),
            ([W1_DICT], "instance file must contain a JSON object"),
            (dict(W1_DICT, format_version=2), "format_version: expected 1, got 2"),
            ({k: v for k, v in W1_DICT.items() if k != "A"},
             "instance requires both 'A' and 'D'"),
            (dict(W1_DICT, A="x"), "A: expected an array of rows"),
            (dict(W1_DICT, A=[["-1", "1"], ["1", "-1"], ["0", "0"]]),
             "A: expected 2 rows, found 3"),
            (dict(W1_DICT, D="x"), "D: expected an array of diagonals"),
            (dict(W1_DICT, D=[["1", "0"]]), "D: expected 2 diagonals, found 1"),
            (dict(W1_DICT, label=7), "label: expected a string, got 7"),
            (dict(W1_DICT, n=1, A=[["0"]], D=[["1"], ["2"]]), "n must be at least 2, got 1"),
            (dict(W1_DICT, n=0, A=[], D=[[], []]), "n must be at least 2, got 0"),
            (dict(W1_DICT, K=0, D=[]), "K must be at least 1, got 0"),
        ],
        ids=["boolean-entry", "diagonal-not-array", "top-level-array", "format-version-2",
             "missing-A", "A-not-array", "A-row-count", "D-not-array", "D-count",
             "label-not-string", "n-below-2", "n-zero", "K-below-1"],
    )
    def test_rejected_instance_names_its_fault(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert run_command(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_initial_direction_is_an_unknown_field(self, tmp_path, capsys):
        path = _write_instance(tmp_path, "h.json", H=["1", "1"])
        assert run_command(["analyze", path]) == 1
        assert capsys.readouterr().err == "error: unknown instance fields: ['H']\n"

    def test_integer_entries_read_as_their_strings(self, tmp_path, capsys):
        shipped = os.path.join(os.path.dirname(__file__), os.pardir, "instances", "w1.json")
        path = _write_instance(tmp_path, "ints.json", A=[[-1, 1], [1, -1]], D=[[1, 0], [0, 1]])
        assert run_command(["analyze", shipped]) == 0
        expected = capsys.readouterr().out
        assert run_command(["analyze", path]) == 0
        assert capsys.readouterr().out == expected


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _mangled_instance(rng, base: dict) -> dict:
    """``base`` with one to three malformations drawn from a fixed list."""
    data = json.loads(json.dumps(base))
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(
            ["n", "K", "format_version", "ragged", "3/0", "1.5", "digits",
             "non-string", "extra key", "missing key"]
        )
        field = rng.choice(["A", "D"])
        rows = data.get(field)
        if not (isinstance(rows, list) and rows and all(isinstance(r, list) and r for r in rows)):
            rows = None
        if kind in ("n", "K", "format_version"):
            data[kind] = rng.choice([0, 1, -3, 2, 3, 9, 10**30, "2", 2.0, None, True, [2]])
        elif kind == "ragged" and rows:
            row = rng.choice(rows)
            if rng.random() < 0.5:
                row.pop()
            else:
                row.append("1")
        elif kind in ("3/0", "1.5", "digits", "non-string") and rows:
            value = {
                "3/0": "3/0",
                "1.5": "1.5",
                "digits": rng.choice(["", "-"]) + str(rng.randint(1, 9)) + "0" * 399
                + rng.choice(["", "/7", "/1" + "3" * 400]),
                "non-string": rng.choice([1.5, None, True, [], {}, 7]),
            }[kind]
            row = rng.choice(rows)
            row[rng.randrange(len(row))] = value
        elif kind == "extra key":
            data[rng.choice(["H", "x", "labels", "n "])] = rng.choice(["1", 1, [], None])
        elif kind == "missing key" and data:
            del data[rng.choice(sorted(data))]
    return data


class TestAnalyzeErrorContract:
    """A seeded, bounded fuzz of malformed instance files: ``analyze``
    exits 0 with strict JSON, or 1 with an empty stdout and one ``error:``
    line, and never raises."""

    def test_malformed_instance_files(self, tmp_path, capsys):
        bases = [W1_DICT] + [
            instance_to_dict(generate_instance(GeneratorConfig(n=n, K=k, seed=n, family=f))[0])
            for f in FAMILIES
            for n, k in ((3, 2), (4, 5))
        ]
        rng = random.Random(19)
        path = tmp_path / "fuzz.json"
        exits = {0: 0, 1: 0}
        for _ in range(600):
            data = _mangled_instance(rng, rng.choice(bases))
            path.write_text(json.dumps(data), encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_command(["analyze", str(path)])
            captured = capsys.readouterr()
            assert code in exits, (code, data)
            exits[code] += 1
            if code == 0:
                json.loads(captured.out, parse_constant=_reject_constant)
                assert captured.err == "", data
            else:
                assert captured.out == "", data
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, (
                    captured.err, data,
                )
        assert min(exits.values()) >= 10, exits


def _assert_one_error_line(code, captured, argv):
    assert code == 1, argv
    assert captured.out == "", argv
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, (
        captured.err, argv,
    )


class TestSearchErrorContract:
    """A seeded, bounded draw of bad ``search`` arguments: each exits 1
    with an empty stdout and one ``error:`` line.  The valid values around
    the bad ones stay small (n, K <= 3, at most 2 samples and 2 workers),
    so a check that came only after the campaign would still end fast."""

    RANGES = [(1, 2), (0, 3), (3, 2), (2, 9), (-1, 2), (2, 10**20), (9, 9)]
    FAMILY_LISTS = ["", ",", "x", "markov", f"{FAMILIES[0]},", f"{FAMILIES[1]},{FAMILIES[1]}",
                    f"{FAMILIES[0]},{FAMILIES[1]},{FAMILIES[0]}"]

    def _argv(self, rng, where):
        values = {
            "n": (2, rng.randint(2, 3)),
            "k": (2, rng.randint(2, 3)),
            "samples": rng.randint(1, 2),
            "seed": rng.randint(0, 2**64 - 1),
            "workers": rng.randint(1, 2),
            "families": rng.choice([None, FAMILIES[0], ",".join(FAMILIES)]),
            "out": str(where / "r.json"),
        }
        for kind in rng.sample(
            ["n", "k", "samples", "seed", "families", "workers", "out"], rng.randint(1, 3)
        ):
            if kind in ("n", "k"):
                values[kind] = rng.choice(self.RANGES)
            elif kind == "samples":
                values[kind] = rng.choice([0, -1, -(10**20)])
            elif kind == "seed":
                values[kind] = rng.choice([-1, 2**64, 2**64 + 5, -(2**70)])
            elif kind == "families":
                values[kind] = rng.choice(self.FAMILY_LISTS)
            elif kind == "workers":
                values[kind] = rng.choice([0, -1, -(10**20)])
            else:
                values[kind] = rng.choice(
                    [str(where), str(where) + "/", str(where / "r.json") + "/",
                     str(where / "r\0.json")]
                )
        argv = [
            "search",
            "--n-min", str(values["n"][0]), "--n-max", str(values["n"][1]),
            "--k-min", str(values["k"][0]), "--k-max", str(values["k"][1]),
            "--samples", str(values["samples"]), "--seed", str(values["seed"]),
            "--workers", str(values["workers"]), "--out", values["out"],
        ]
        if values["families"] is not None:
            argv += ["--families", values["families"]]
        return argv

    def test_bad_arguments(self, tmp_path, capsys):
        rng = random.Random(1901)
        for i in range(120):
            where = tmp_path / str(i)
            where.mkdir()
            argv = self._argv(rng, where)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_command(argv)
            _assert_one_error_line(code, capsys.readouterr(), argv)
            # nothing is written, and no artifact directory is left behind
            assert os.listdir(where) == [], argv


class TestSymbolicErrorContract:
    """Bad ``symbolic`` arguments: a K outside 2..6, or an ``--out`` that
    names a directory or lies in a missing one, exit 1 with an empty
    stdout and one ``error:`` line."""

    def test_bad_arguments(self, tmp_path, capsys):
        rng = random.Random(1902)
        missing = tmp_path / "missing"
        for _ in range(40):
            if rng.random() < 0.5:
                argv = ["symbolic", "--k", str(rng.choice([1, 0, -1, 7, 8, 10**20, -(10**20)]))]
                if rng.random() < 0.5:
                    argv += ["--out", str(tmp_path / "s.json")]
            else:
                out = rng.choice([str(tmp_path), str(missing / "s.json"), str(tmp_path) + "/s/"])
                argv = ["symbolic", "--k", str(rng.randint(2, 3)), "--out", out]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_command(argv)
            _assert_one_error_line(code, capsys.readouterr(), argv)
        assert os.listdir(tmp_path) == []


PROFILE_BASES = [W1_DICT] + [
    instance_to_dict(generate_instance(GeneratorConfig(n=n, K=k, seed=n + k, family=f))[0])
    for f in FAMILIES
    for n, k in ((3, 2), (4, 3))
]


def _profile_instance(rng, tmp_path) -> tuple[str, int]:
    """An instance file and the K to draw points for: W1 or a generated
    instance of either family (the similarity family's M can be
    indefinite), or one in seven times a malformed one."""
    data = rng.choice(PROFILE_BASES)
    if rng.random() < 1 / 7:
        data = _mangled_instance(rng, data)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    k = data.get("K")
    return str(path), k if type(k) is int and 1 <= k <= 8 else 2


def _wrong_length(rng, coords: list[str]) -> list[str]:
    """One coordinate too few or too many, never none."""
    return coords[:-1] if len(coords) > 1 and rng.random() < 0.5 else coords + ["0.5"]


def _assert_contract(argv, capsys, exits):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(argv)
    captured = capsys.readouterr()
    assert code in exits, (code, argv)
    exits[code] += 1
    if code == 0:
        json.loads(captured.out, parse_constant=_reject_constant)
        assert captured.err == "", argv
    else:
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, (
            captured.err, argv,
        )


class TestPhi0ErrorContract:
    """A seeded, bounded draw of extreme floats for every ``phi0`` option, a
    wrong ``--point`` length and malformed instance files: each exits 0
    with strict JSON and an empty stderr, or 1 with an empty stdout and one
    ``error:`` line."""

    def test_extreme_and_malformed_inputs(self, tmp_path, capsys):
        rng = random.Random(1904)
        exits = {0: 0, 1: 0}
        for _ in range(400):
            path, k = _profile_instance(rng, tmp_path)
            values = {name: repr(round(rng.uniform(0.05, 3.0), 3))
                      for name in ("sigma", "t", "eps", "amplitude")}
            point = [repr(round(rng.uniform(-2.0, 2.0), 3)) for _ in range(k)]
            for name in rng.sample([*values, "point"], rng.randint(1, 2)):
                if name == "point":
                    point = [repr(extreme_float(rng)) for _ in range(k)]
                    if rng.random() < 0.2:
                        point = _wrong_length(rng, point)
                else:
                    values[name] = repr(extreme_float(rng))
            argv = ["phi0", "--instance", path, *(f"--{n}={v}" for n, v in values.items()),
                    f"--point={','.join(point)}"]
            _assert_contract(argv, capsys, exits)
        assert min(exits.values()) >= 40, exits


class TestResidualErrorContract:
    """The same draw for ``residual``: extreme ``--t``, ``--h``,
    ``--sigma`` and ``--zeta`` values, a wrong ``--zeta`` length and
    malformed instance files."""

    def test_extreme_and_malformed_inputs(self, tmp_path, capsys):
        rng = random.Random(1905)
        exits = {0: 0, 1: 0}
        for _ in range(400):
            path, k = _profile_instance(rng, tmp_path)
            values = {"t": repr(round(rng.uniform(0.5, 3.0), 3)),
                      "h": rng.choice(["0.01", "0.001"]),
                      "sigma": repr(round(rng.uniform(0.5, 3.0), 3))}
            zeta = [repr(round(rng.uniform(-2.0, 2.0), 3)) for _ in range(k)]
            for name in rng.sample([*values, "zeta"], rng.randint(1, 2)):
                if name == "zeta":
                    zeta = [repr(extreme_float(rng)) for _ in range(k)]
                    if rng.random() < 0.2:
                        zeta = _wrong_length(rng, zeta)
                else:
                    values[name] = repr(extreme_float(rng))
            argv = ["residual", "--instance", path, *(f"--{n}={v}" for n, v in values.items()),
                    f"--zeta={','.join(zeta)}"]
            _assert_contract(argv, capsys, exits)
        assert min(exits.values()) >= 40, exits


SEARCH_ARGV = [
    "search",
    "--n-min", "2", "--n-max", "2",
    "--k-min", "2", "--k-max", "2",
    "--samples", "1", "--seed", "0",
]


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

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["symbolic", "--k", "9" * 100_000], "--k"),
            (["x" * 100_000], "command"),
            (["analyze", "w1.json", "--bogus", "x" * 100_000], "--bogus"),
            (["phi0", "--instance", "w1.json", "--sigma", "1", "--t", "1", "--eps", "1",
              "--amplitude", "1", "--point", "x" * 100_000], "--point"),
            # 4000 digits still pass int(), so the value reaches the check;
            # of a repeated option, the last occurrence wins
            ([*SEARCH_ARGV, "--n-min", "9" * 4000], "n_range"),
            ([*SEARCH_ARGV, "--families", "x" * 100_000], "families"),
            ([*SEARCH_ARGV, "--families", ",".join([FAMILIES[0]] * 10_000)], "families"),
            (["symbolic", "--k", "9" * 4000], "directions"),
            # the OS error quotes the path, cut like any rejected value
            (["analyze", "x" * 100_000], "File name too long"),
        ],
        ids=["int-option", "command", "unrecognized", "point", "n-range", "unknown-family",
             "repeated-family", "symbolic-k", "os-error-path"],
    )
    def test_rejected_argument_echo_is_bounded(self, tmp_path, capsys, argv, name):
        if argv[0] == "search":
            argv = [*argv, "--out", str(tmp_path / "r.json")]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert name in err
        assert len(err.encode()) < 1000

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


class TestSharedParser:
    """One parser serves every command of a process; no state carries over."""

    def test_built_once_over_many_commands(self, w1_path, capsys):
        cli._build_parser.cache_clear()
        for argv in (["analyze", w1_path], ["frobnicate"], ["symbolic", "--k", "2"], ["--help"]):
            run_command(argv)
        capsys.readouterr()
        assert cli._build_parser.cache_info().misses == 1
        assert cli._build_parser.cache_info().hits == 3

    def test_out_does_not_carry_over(self, w1_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_command(["analyze", w1_path, "--out", str(out)]) == 0
        assert "report written to" in capsys.readouterr().out
        assert run_command(["analyze", w1_path]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_usage_error_then_valid_command(self, w1_path, capsys):
        assert run_command(["analyze", w1_path, "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err
        assert run_command(["analyze", w1_path]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["structure"]["rank_exact"] == 1
        assert captured.err == ""

    def test_help_twice(self, capsys):
        for _ in range(2):
            assert run_command(["--help"]) == 0
            assert "residual" in capsys.readouterr().out

    def test_families_default_per_call(self, tmp_path, capsys):
        grid = ["--n-min", "2", "--n-max", "2", "--k-min", "2", "--k-max", "2",
                "--samples", "1", "--seed", "1"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["search", *grid, "--families", "markov_generator", "--out", str(first)]
        assert run_command(argv) == 0
        assert run_command(["search", *grid, "--out", str(second)]) == 0
        capsys.readouterr()
        families = [json.loads(p.read_text(encoding="utf-8"))["config"]["families"]
                    for p in (first, second)]
        assert families == [["markov_generator"], list(FAMILIES)]


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

    @pytest.mark.parametrize("name", ["outdir", "newdir/"])
    def test_directory_out_rejected_before_the_campaign(
        self, tmp_path, monkeypatch, capsys, name
    ):
        (tmp_path / "outdir").mkdir()
        out = os.path.join(str(tmp_path), name)  # pathlib drops a trailing "/"

        def no_cell(*args, **kwargs):
            raise AssertionError("a campaign cell ran")

        monkeypatch.setattr("perturbrank.search._run_cell", no_cell)
        rc = run_command(
            [
                "search",
                "--n-min", "2", "--n-max", "3",
                "--k-min", "2", "--k-max", "3",
                "--samples", "6", "--seed", "1",
                "--out", out,
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out" in captured.err and "directory" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir"]
        assert not any((tmp_path / "outdir").iterdir())

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

        # no name is bound in cli before its first command
        monkeypatch.setattr("perturbrank.cli.run_campaign", fake_run_campaign, raising=False)
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

    def test_workers_default_to_one_whatever_the_environment(self, tmp_path, monkeypatch):
        # --workers is the one knob; the variable that used to stand in for it is ignored
        monkeypatch.setenv("PERTURB_RANK_WORKERS", "2")
        out = str(tmp_path / "r.json")
        rc = run_command(
            [
                "search",
                "--n-min", "2", "--n-max", "2",
                "--k-min", "2", "--k-max", "3",
                "--samples", "1", "--seed", "4",
                "--families", "markov_generator",
                "--out", out,
            ]
        )
        assert rc == 0
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh)["config"]["worker_count"] == 1

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

    def test_unwritable_out_prints_no_success(self, tmp_path, capsys):
        # the report is written before anything is printed
        assert run_command(["symbolic", "--k", "2", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error:")

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
        spec = load_instance_file(w1_path)
        sd = validate_system(spec)
        ts = build_M(spec, sd)
        q = ProfileQuery(
            epsilon=0.05, t=0.7, x=(0.41, 0.29), sigma0=1.5, amplitude=2.0
        )
        assert cli_value == leading_term_eval(sd, ts, q)

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

    def test_residual_takes_no_amplitude(self, w1_path, capsys):
        # the residual is linear in the amplitude, which is fixed at 1
        rc = run_command(
            ["residual", "--instance", w1_path, "--t", "1", "--zeta", "0,0", "--h", "0.01",
             "--amplitude", "1"]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --amplitude 1" in captured.err

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
            ["phi0", "--sigma", "6.550770429955353", "--t", "1e-300", "--eps", "1",
             "--amplitude", "1.7976931348623157e308", "--point", "0,0"],
        ],
        # sigma 1e200 and 1e150 overflow sigma0 ** (2K), which is checked
        # before any numpy arithmetic, and t 1e308 overflows the covariance
        # (NaN determinant); numpy's overflow warnings must not leak out;
        # at that sigma the computed det of sigma0² I is 4 ulps below
        # sigma0 ** 4, and the largest float amplitude overflows the peak
        ids=["phi0-sigma-1e200", "phi0-sigma-1e150", "residual-sigma-1e200",
             "residual-sigma-1e150", "phi0-t-1e308", "phi0-peak-overflow"],
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
        if argv[argv.index("--sigma") + 1] in ("1e200", "1e150"):
            assert "sigma0 ** 4 overflows" in lines[0]
        if "1.7976931348623157e308" in argv:
            assert lines[0] == "error: the peak value amplitude * sqrt(det0 / det) overflows a float"

    @pytest.mark.parametrize(
        "argv",
        [
            ["residual", "--t", "1e151", "--h", "1e145", "--sigma", "1.2835416569009013",
             "--zeta=-7e+151,-9e+158,-5e+158,-4e+159,5e+153,5e+159,5e+152,6e+158"],
            ["phi0", "--t", "1e151", "--eps", "1", "--amplitude", "1",
             "--sigma", "1.2835416569009013",
             "--point=-5e+157,1e+158,7e+155,-9e+155,7e+159,1e+156,-5e+154,8e+159"],
            ["phi0", "--t", "1e25", "--eps", "1", "--amplitude", "1",
             "--sigma", "1.2835416569009013",
             "--point=3e+159,3e+159,2e+159,9e+158,7e+159,3e+159,-1e+159,-4e+159"],
        ],
        # the float covariance at t = 1e151 is so ill-conditioned that the
        # computed form is hugely negative and exp(-form / 2) overflows: an
        # error line, not a traceback; at t = 1e25 the far-point fallback
        # gives this point the form -inf, which printed [Infinity, Infinity,
        # Infinity] and exited 0
        ids=["residual", "phi0", "phi0-minus-inf-form"],
    )
    def test_negative_form_exits_one(self, tmp_path, capsys, argv):
        spec, _ = generate_instance(GeneratorConfig(n=3, K=8, seed=759637858207))
        path = tmp_path / "n3K8.json"
        path.write_text(dumps(instance_to_dict(spec)), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_command([argv[0], "--instance", str(path), *argv[1:]])
        assert rc == 1
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "error: covariance is not positive definite: a quadratic form is -"
        )

    @pytest.mark.parametrize(
        "command, name, value",
        [("phi0", "leading_term_eval", [1.0, math.inf]), ("residual", "pde_residual", math.nan)],
    )
    def test_non_json_float_is_an_error(self, w1_path, capsys, monkeypatch, command, name, value):
        # the printers refuse Infinity and NaN, which are not JSON
        monkeypatch.setattr(cli, name, lambda *args: value, raising=False)
        argv = {"phi0": ["--t", "1", "--eps", "1", "--sigma", "1", "--amplitude", "1",
                         "--point", "0,0"],
                "residual": ["--t", "1", "--zeta", "0,0", "--h", "0.01"]}[command]
        assert run_command([command, "--instance", w1_path, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    def test_state_entry_overflow_exits_one(self, tmp_path, capsys):
        # h1 = (1, 10^300): phi0 is finite, phi0 * h1[1] is not, and used
        # to print [6065306597.126334, Infinity] (not JSON) and exit 0
        big = "1" + "0" * 300
        path = tmp_path / "far-h1.json"
        path.write_text(
            json.dumps(
                {"format_version": 1, "n": 2, "K": 2, "A": [["-" + big, "1"], [big, "-1"]],
                 "D": [["0", "1"], ["1", "0"]], "label": "far-h1"}
            ),
            encoding="utf-8",
        )
        argv = ["phi0", "--instance", str(path), "--t", "1", "--eps", "1", "--sigma", "1",
                "--point", "0,0"]
        assert run_command(argv + ["--amplitude", "1e10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the state entry phi0 * h1[1] overflows a float"
        ]
        assert run_command(argv + ["--amplitude", "1"]) == 0
        assert json.loads(capsys.readouterr().out)[1] > 1e299

    @pytest.mark.parametrize(
        "argv",
        [
            ["--t", "1", "--eps", "1e-300", "--point", "1,0"],
            ["--t", "10", "--eps", "1e-300", "--point", "6,3"],
            ["--t", "1", "--eps", "1e-310", "--point", "1,0"],
        ],
        # the comoving point is about 1e300 from the origin, so the products
        # in the quadratic form overflow; at t = 10, (6, 3) used to make
        # them cancel to -inf and print [Infinity, Infinity]; at eps 1e-310
        # the comoving point itself overflows to ±inf from finite inputs,
        # which used to exit 1 with "zeta must be finite"
        ids=["overflow-to-inf", "overflow-to-minus-inf", "comoving-point-overflows"],
    )
    def test_phi0_far_point_is_zero_and_quiet(self, w1_path, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_command(
                ["phi0", "--instance", w1_path, "--sigma", "1", "--amplitude", "1", *argv]
            )
        assert rc == 0
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("[0.0, 0.0]\n", "")

    def test_residual_far_centre_is_quiet(self, w1_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_command(
                ["residual", "--instance", w1_path, "--t", "1", "--zeta", "1e200,0",
                 "--h", "1e-3"]
            )
        assert rc == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "error: step h = 0.001 is too small: t or zeta does not move by h\n"
        )

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


def test_declared_version_is_the_package_version():
    # pyproject.toml reads its version off perturbrank.__version__
    pytest.importorskip("setuptools")
    from setuptools.config.pyprojecttoml import read_configuration

    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with warnings.catch_warnings():
        # setuptools before 69 calls [tool.setuptools] a beta feature
        warnings.simplefilter("ignore")
        config = read_configuration(path)
    assert config["project"]["version"] == perturbrank.__version__


def test_module_entry_point_far_point_writes_no_stderr(w1_path):
    proc = _run_python(
        "-m", "perturbrank", "phi0", "--instance", w1_path, "--sigma", "1", "--t", "1",
        "--eps", "1e-300", "--amplitude", "1", "--point", "1,0",
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0.0, 0.0]\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{path}"],
        ["phi0", "--instance", "{path}", "--sigma", "1", "--t", "1", "--eps", "1",
         "--amplitude", "1", "--point", "1,0"],
        ["residual", "--instance", "{path}", "--t", "1", "--zeta", "0,0", "--h", "0.01"],
    ],
    ids=["analyze", "phi0", "residual"],
)
def test_deeply_nested_json_is_invalid_json(tmp_path, argv):
    # json's decoder recurses once per nesting level
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    proc = _run_python("-m", "perturbrank", *(a.format(path=path) for a in argv))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: {str(path)!r:.60}: invalid JSON (")
    assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 300
    assert "Traceback" not in proc.stderr


PHI0_ARGV = ["phi0", "--instance", "{path}", "--sigma", "1", "--t", "1", "--eps", "1",
             "--amplitude", "1", "--point", "1,0"]


@pytest.mark.parametrize(
    "overrides, argv",
    [
        ({"D": HUGE_D}, ["analyze", "{path}"]),
        ({"D": HUGE_D}, PHI0_ARGV),
        ({"D": HUGE_D}, ["residual", "--instance", "{path}", "--t", "1", "--zeta", "0,0",
                         "--h", "0.01"]),
        ({"D": [[HUGE, HUGE], ["0", "1"]]}, PHI0_ARGV),
        ({"A": [["-" + HUGE, "1"], [HUGE, "-1"]]}, PHI0_ARGV),
    ],
    # D[0][0] = 10^400 puts M beyond float range; equal entries 10^400 in
    # D[0] leave M finite and put the speed v_1 there, and that A puts
    # h1 = (1, 10^400) there with M and v finite
    ids=["analyze", "phi0", "residual", "phi0-speed", "phi0-h1"],
)
def test_entry_beyond_float_range_exits_one(tmp_path, overrides, argv):
    path = _write_instance(tmp_path, "huge.json", **overrides)
    proc = _run_python("-m", "perturbrank", *(a.format(path=path) for a in argv))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "beyond float range" in proc.stderr
    assert "Traceback" not in proc.stderr


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

watched = ("numpy", "concurrent.futures", "multiprocessing", "hashlib")

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("perturbrank.") or m in watched)

import perturbrank
sets = [loaded()]
from perturbrank.cli import run_command
sets.append(loaded())
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(run_command(argv))
        sets.append(loaded())
print(json.dumps({"codes": codes, "sets": sets}))
"""

_W1 = os.path.join(os.path.dirname(__file__), os.pardir, "instances", "w1.json")


def _import_sets(*commands):
    """The watched modules loaded, in a fresh interpreter, after ``import
    perturbrank``, after ``import perturbrank.cli`` and after each command."""
    proc = _run_python("-c", _IMPORT_SET_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(commands)
    return [set(loaded) for loaded in result["sets"]]


def _search_argv(out):
    return ["search", "--n-min", "2", "--n-max", "2", "--k-min", "2", "--k-max", "2",
            "--samples", "1", "--seed", "0", "--workers", "1", "--out", str(out)]


_PHI0_ARGV = ["phi0", "--instance", _W1, "--sigma", "1", "--t", "1", "--eps", "1",
              "--amplitude", "1", "--point", "0,0"]
_RESIDUAL_ARGV = ["residual", "--instance", _W1, "--t", "1", "--zeta", "0,0", "--h", "0.01"]


def test_exact_commands_load_neither_numpy_nor_the_process_pool(tmp_path):
    # a cold start of analyze, symbolic and a one-worker search pays for
    # neither import; the float Gaussian of phi0 still loads numpy
    sets = _import_sets(["analyze", _W1], ["symbolic", "--k", "2"],
                        _search_argv(tmp_path / "campaign.json"), _PHI0_ARGV)
    lazy = {"numpy", "concurrent.futures", "multiprocessing"}
    assert sets[-2] & lazy == set()
    assert "numpy" in sets[-1]


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["analyze", _W1], {"search", "symbolic", "multipoly", "hashlib"}),
        (_PHI0_ARGV, {"search", "symbolic", "multipoly", "hashlib"}),
        (_RESIDUAL_ARGV, {"search", "symbolic", "multipoly", "hashlib"}),
        (["symbolic", "--k", "2"], {"search", "asymptotics", "hashlib"}),
        (None, {"symbolic", "multipoly"}),
    ],
    ids=["analyze", "phi0", "residual", "symbolic", "search"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, absent):
    # the package loads no module on import, the command line only the
    # parser's model and its exact_linalg, and a command what it calls
    sets = _import_sets(argv or _search_argv(tmp_path / "campaign.json"))
    assert sets[0] == set()
    assert sets[1] == {"perturbrank.cli", "perturbrank.model", "perturbrank.exact_linalg"}
    names = {m.removeprefix("perturbrank.") for m in sets[2]}
    assert names & absent == set()


_BINDING_PROBE = """
import contextlib, importlib, io, json, sys
from perturbrank import cli

checked, wrong = {}, []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        assert cli.run_command(argv) == 0
        handler, modules = cli._HANDLERS[argv[0]]
        calls = {*handler.__code__.co_names, *cli._load.__code__.co_names}
        for module in modules:
            source = importlib.import_module(f"perturbrank.{module}")
            for name in calls & set(source.__all__):
                checked.setdefault(argv[0], []).append(name)
                if getattr(cli, name, None) is not getattr(source, name):
                    wrong.append([argv[0], name])
print(json.dumps({"checked": {c: sorted(n) for c, n in checked.items()}, "wrong": wrong}))
"""


def test_each_command_binds_the_names_its_handler_calls(tmp_path):
    # after one run of a command, each exported name of its modules that
    # its handler (or _load) calls is cli's attribute, the module's own
    # object: what perfbench's traced runs and the patched tests replace
    commands = [["analyze", _W1], _PHI0_ARGV, _RESIDUAL_ARGV, ["symbolic", "--k", "2"],
                _search_argv(tmp_path / "campaign.json")]
    proc = _run_python("-c", _BINDING_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["wrong"] == []
    # co_names holds attribute names too: phi0's and residual's json.dumps
    assert result["checked"] == {
        "analyze": ["analyze_structure", "build_M", "build_report", "dumps",
                    "load_instance_file"],
        "phi0": ["ProfileQuery", "build_M", "dumps", "leading_term_eval", "load_instance_file"],
        "residual": ["ProfileQuery", "build_M", "dumps", "load_instance_file", "pde_residual"],
        "symbolic": ["dumps", "load_instance_file", "symbolic_report"],
        "search": ["CampaignConfig", "dumps", "load_instance_file", "run_campaign"],
    }


# ``from perturbrank import *``: the names of the commit that made the
# namespace lazy, less DISSIPATIVITY_TOLERANCE (dissipativity is exact),
# plus the four names of the modules' __all__ that its table left out
# (dumps, echelon_reduce, inertia, rational_str)
_STAR_NAMES = [
    "BREACH_KINDS", "CHARPOLY_SIZE_LIMIT", "CampaignConfig", "FAMILIES",
    "FORMAT_VERSION", "GenerationFailed", "GeneratorConfig",
    "KernelDimensionError", "MARKOV_FAMILY", "MAX_SYMBOLIC_DIRECTIONS", "MultiPoly",
    "NotDissipative", "NotStable", "ProfileQuery", "RANK_AGREEMENT_TOLERANCE",
    "RationalMatrix", "SIMILARITY_FAMILY", "SingularCovariance", "SizeLimitExceeded",
    "SpectralData", "StructureReport", "SymbolicStructure", "SystemSpec",
    "TransferStructure", "analyze_structure", "as_rational", "asymptotics", "build_M",
    "build_M_parametric", "build_report", "charpoly_adjugate", "derive_instance_seed",
    "dumps", "echelon_reduce", "eigen_closed_form_n2", "exact_linalg", "formats",
    "generate_instance", "hurwitz_stable", "inertia", "instance_to_dict",
    "jacobi_eigenvalues", "leading_term_eval", "load_instance_file", "model", "multipoly",
    "nullspace", "pde_residual", "phi0_eval", "rank_exact", "rational_str", "run_campaign",
    "search", "symbolic", "symbolic_report", "validate_system", "verify_rank_one_identity",
]

_NAMESPACE_PROBE = """
import importlib, json, sys

route = sys.argv[1]
import perturbrank
wrong = []
for name in perturbrank.__all__:
    if route == "from":
        scope = {}
        exec(f"from perturbrank import {name}", scope)
        value = scope[name]
    else:
        value = getattr(perturbrank, name)
    owners = [m for m in ("exact_linalg", "model", "asymptotics", "formats", "search",
                          "multipoly", "symbolic")
              if name in importlib.import_module(f"perturbrank.{m}").__all__]
    if owners:
        expected = getattr(importlib.import_module(f"perturbrank.{owners[0]}"), name)
    else:
        expected = importlib.import_module(f"perturbrank.{name}")
    if value is not expected:
        wrong.append(name)
star = {}
exec("from perturbrank import *", star)
print(json.dumps({"wrong": wrong, "star": sorted(set(star) - {"__builtins__"})}))
"""


@pytest.mark.parametrize("route", ["from", "attr"])
def test_lazy_namespace_serves_every_exported_name(route):
    # each name resolves on first access, through either route, to the
    # object its module defines
    proc = _run_python("-c", _NAMESPACE_PROBE, route)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"wrong": [], "star": _STAR_NAMES}


def test_lazy_namespace_rejects_unknown_names():
    with pytest.raises(AttributeError, match="'perturbrank' has no attribute 'nope'"):
        perturbrank.nope
    with pytest.raises(ImportError):
        exec("from perturbrank import nope", {})
    # a tracer probes cli with getattr(cli, name, None) and skips a miss
    assert getattr(cli, "report_to_dict", None) is None
    assert perturbrank.cli is cli
    assert {"cli", "model", "run_campaign", "__version__"} <= set(dir(perturbrank))


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


_LOADED_PROBE = """
import json, sys
exec(sys.argv[1], {})
print(json.dumps(sorted(m for m in sys.modules if m.startswith("perturbrank."))))
"""


def _loaded_after(code):
    """The package's modules loaded after ``code`` runs in a fresh interpreter."""
    proc = _run_python("-c", _LOADED_PROBE, code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_serves_inertia():
    # the exact inertia that README's Errors list documents as a library call
    code = ("from perturbrank import inertia\n"
            "import perturbrank.exact_linalg as own\n"
            "assert inertia is own.inertia")
    assert _loaded_after(code) == ["perturbrank.exact_linalg"]


def test_dunder_probe_loads_no_module():
    # pytest looks up __test__ and __bases__ on every module it collects from
    code = "import perturbrank\nassert not hasattr(perturbrank, '__test__')"
    assert _loaded_after(code) == []


def _readme_library_snippet():
    """The python block under "## Library", the documented library API."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_snippet_runs():
    namespace = {}
    exec(_readme_library_snippet(), namespace)
    assert namespace["report"].outcome == "match"
    assert len(namespace["values"]) == namespace["s"].n


def test_readme_library_snippet_loads_three_modules():
    # as README says: model, exact_linalg and asymptotics, and no other
    assert _loaded_after(_readme_library_snippet()) == [
        "perturbrank.asymptotics", "perturbrank.exact_linalg", "perturbrank.model"]
