"""Tests for tools/bench_json.py, the BENCH_<label>.json recorder."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_json.py")

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_json", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root, source, runs):
    (root / "src").mkdir(parents=True)
    (root / "src" / "mod.py").write_text(source, encoding="utf-8")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    out = root / ".perfbench_out"
    out.mkdir()
    for seed, wall, trace in runs:
        record = {"workload": "campaign-wide", "seed": seed, "trace": trace, "tiny": False,
                  "machine": "x86_64", "cpus": 2, "seconds": 20.0}
        result = {"attempted": 10, "failed": 0, "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": 1.0 / wall, "unit": "1/s"},
        }}
        name = f"result-campaign-wide-seed{seed}-trace{trace}.json"
        (out / name).write_text(json.dumps({"record": record, "result": result}))


def test_pairs_medians_and_quartiles(tool, tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _checkout(parent, "old = 1\n", [(1, 0.50, 0), (2, 0.40, 0), (3, 0.60, 0), (4, 0.45, 0),
                                    (1, 9.0, 1)])
    _checkout(change, "new = 1\n", [(1, 0.30, 0), (2, 0.45, 0), (3, 0.35, 0), (4, 0.30, 0)])
    monkeypatch.chdir(tmp_path)
    assert tool.main(["demo", str(parent), str(change)]) == 0
    bench = json.loads((tmp_path / "BENCH_demo.json").read_text())
    wall = bench["workloads"]["campaign-wide"]["metrics"]["wall_s"]
    # the traced run of seed 1 is not an end-to-end measurement
    assert wall["parent"]["runs"] == {"1": 0.5, "2": 0.4, "3": 0.6, "4": 0.45}
    assert wall["parent"]["median"] == pytest.approx(0.475)
    assert wall["parent"]["q1"] == pytest.approx(0.4125)
    assert wall["parent"]["q3"] == pytest.approx(0.575)
    assert (wall["pairs"], wall["change_wins"]) == (4, 3)
    ops = bench["workloads"]["campaign-wide"]["metrics"]["ops_per_s"]
    assert (ops["better"], ops["change_wins"]) == ("higher", 3)
    assert bench["workloads"]["campaign-wide"]["failed"] == {"parent": 0, "change": 0}
    # it is recorded apart, as it is
    assert bench["traced"] == {
        "campaign-wide": {"parent": {"1": {"wall_s": 9.0, "ops_per_s": 1.0 / 9.0}}}
    }
    assert bench["parent"]["src_sha256"] != bench["change"]["src_sha256"]
    assert bench["change"]["provenance"] == [
        {"machine": "x86_64", "cpu": None, "cpus": 2, "system": None, "python": None,
         "numpy": None, "perturbrank": None, "seconds": 20.0}
    ]


def test_missing_results_exit_one(tool, tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _checkout(parent, "", [(1, 0.5, 0)])
    _checkout(change, "", [])
    monkeypatch.chdir(tmp_path)
    assert tool.main(["demo", str(parent), str(change)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_demo.json").exists()
