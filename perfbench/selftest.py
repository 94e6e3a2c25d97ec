"""Self-test of the benchmark itself (not of perturbrank).

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size through ``run.py`` with ``--trace 0``
   and ``--trace 1`` and checks the result line: exactly the declared
   metrics of that mode, each with its declared unit, and no failures.
2. Corrupts one output of each workload kind (an analyze report's rank, a
   campaign report's match count) and checks that exactly that operation
   is counted as failed and lowers ``success_rate``.
3. Runs ``run.py`` in a directory holding only ``BENCHMARK.json`` and the
   benchmark's files, where it must exit non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import worker  # puts src/ on the path

import perturbrank.cli

HERE = worker.HERE
ROOT = worker.ROOT

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(workload: str, trace: int, spec: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == RESULT_KEYS, line.keys()
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared], line["metrics"].keys()
    for entry in declared:
        metric = line["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"} and metric["unit"] == entry["unit"], metric
        assert isinstance(metric["value"], (int, float)), metric
    print(f"ok   {workload} --trace {trace}: {len(declared)} metrics with units")


def corrupt_first(kind: str, corrupt) -> None:
    """Run a tiny workload with its first matching output corrupted."""
    original = perturbrank.cli.run_command
    state = {"done": False}

    def run_command(argv):
        rc = original(argv)
        if argv[0] == kind and not state["done"]:
            state["done"] = True
            corrupt(argv)
        return rc

    name = "queries" if kind == "analyze" else "campaign-small"
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=worker.ROOT / ".perfbench_work"))
    perturbrank.cli.run_command = run_command
    try:
        runner = worker.Runner(worker.build(name, 7, True, workdir), 7, True)
        result = worker.measure(runner, 0)
    finally:
        perturbrank.cli.run_command = original
        shutil.rmtree(workdir, ignore_errors=True)
    assert state["done"], f"no {kind} command ran"
    assert runner.failed == 1, (runner.failed, runner.failures)
    rate = result["metrics"]["success_rate"][0]
    assert rate == 1 - 1 / runner.attempted, rate
    print(f"ok   corrupted {kind} output counted: success_rate {rate:.4f}")


def corrupt_rank(argv) -> None:
    # analyze has already written its report to the captured stdout
    out = sys.stdout
    text = out.getvalue()
    out.seek(0)
    out.truncate()
    out.write(text.replace('"rank_exact": ', '"rank_exact": 1', 1))


def corrupt_report(argv) -> None:
    path = Path(argv[argv.index("--out") + 1])
    report = json.loads(path.read_text(encoding="utf-8"))
    report["cells"][0]["matches"] += 1
    path.write_text(json.dumps(report), encoding="utf-8")


def check_bare_directory() -> None:
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "queries", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"ok   without the package source: exit {proc.returncode}, no result")


def main() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, spec)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    corrupt_first("analyze", corrupt_rank)
    corrupt_first("search", corrupt_report)
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
