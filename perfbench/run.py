#!/usr/bin/env python3
"""perturbrank benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload campaign-small --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
(nothing is installed).  Workloads (see ``workloads.py``):

  campaign-small  ``search`` over n, K in 2..5, 10 samples per cell, 1 worker
  campaign-wide   ``search`` over n, K in 2..8, 2 samples per cell, 2 workers
  queries         25 one-shot commands per round (analyze, phi0, residual,
                  symbolic) in a seeded order

All are closed loops: one client in one process, each command issued when
the previous one returns.  With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
one-worker run.  ``setup_s`` is the median over several fresh
interpreters of importing ``perturbrank`` and building the workload's
inputs.  Outputs are checked against ``goldens.json`` where the seed has
goldens, and against seed-independent invariants always; a wrong output
counts as a failed operation.  The last line of stdout is the JSON
result; the line before it records the machine, versions and seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("campaign-small", "campaign-wide", "queries")
SETUP_PROBES = 7
#: Every run must end within 180 s, set-up probes included.
DEADLINE_S = 170
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _worker(mode: str, args, workdir: Path, timeout: float, extra=()) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *extra]
    if args.tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def _setup_seconds(args, deadline: float) -> tuple[float, float]:
    """Median wall time, scaled and raw, of fresh interpreters that import
    the package and build the workload's inputs."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK_DIR))
        try:
            started = time.perf_counter()
            proc = _worker("setup", args, workdir, deadline - time.monotonic())
            raw.append(time.perf_counter() - started)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        # the probe samples its own core's speed (see speed.py)
        scaled.append(raw[-1] * json.loads(proc.stdout.splitlines()[-1])["speed_scale"])
    return statistics.median(scaled), statistics.median(raw)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="perturbrank benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size; no goldens apply")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "perturbrank" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix="measure-", dir=WORK_DIR))
    try:
        setup = None if args.trace else _setup_seconds(args, deadline)
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--trace-file", str(OUT_DIR / f"trace-{tag}.jsonl")]
        proc = _worker("measure", args, workdir, deadline - time.monotonic(), extra)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: measurement failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = dict(result["metrics"])
    if setup is not None:
        measured["setup_s"] = (setup[0], "s")
        result["info"]["raw_setup_s"] = setup[1]
    metrics = {}
    for entry in wanted:
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            print(f"error: {entry['name']} measured in {unit}, declared {entry['unit']}",
                  file=sys.stderr)
            return 1
        metrics[entry["name"]] = {"value": value, "unit": unit}
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, **result["provenance"],
              **result["info"]}
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"record": record, "result": line}, indent=2) + "\n", encoding="utf-8")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    for message in result["info"]["failures"]:
        print(f"failed: {message}")
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
