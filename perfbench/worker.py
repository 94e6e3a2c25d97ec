"""One measurement process, started by ``run.py`` in a fresh interpreter.

    python3 perfbench/worker.py setup   --workload W --seed S --workdir D
    python3 perfbench/worker.py measure --workload W --seed S --workdir D \
        --seconds T --trace 0|1 [--tiny]

``setup`` imports the package and builds the workload's inputs, prints
the speed factor of its core (see ``speed.py``) and exits; ``run.py``
times it from outside as the set-up cost.  ``measure``
runs one untimed warm-up iteration, then iterations until ``--seconds``
have passed, checks every operation's output, and prints one JSON object
as its last line.  With ``--trace 1`` it alternates traced and untraced
iterations with one worker and reports per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter_ns
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


class Result(NamedTuple):
    """One operation's raw and speed-scaled time and its output."""

    op: workloads.Op
    raw_s: float
    scaled_s: float
    rc: int | None
    stdout: str
    stderr: str


#: Fewest measured iterations per run.  Queries need four rounds of 25 so
#: that at least ten samples lie beyond the 90th percentile.
MIN_ITERATIONS = {"campaign": 3, "queries": 4}
MIN_TRACED = 2
FAILURE_MESSAGES = 5


def build(name: str, seed: int, tiny: bool, workdir: Path):
    workload = workloads.WORKLOADS[name]
    if tiny:
        workload = workload.tiny()
    workload.prepare(workdir, seed)
    return workload


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One CLI command; returns its exit code, stdout and stderr."""
    import perturbrank.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = perturbrank.cli.run_command(argv)
    return rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs iterations of one workload and checks their outputs."""

    def __init__(self, workload, seed: int, tiny: bool):
        self.workload = workload
        golden = {} if tiny else workloads.load_goldens().get(workload.name, {})
        if golden.get("config") != workload.config_id:
            golden = {}
        self.golden = dict(golden.get("fixed", {}))
        self.golden.update(golden.get("seeds", {}).get(str(seed), {}))
        self.has_goldens = bool(golden.get("seeds", {}).get(str(seed)))
        self.first: dict[str, object] = {}
        self.replayed = False
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.last_facts: dict[str, dict] = {}

    def iteration(self, workers: int | None = None, tracer=None) -> list[Result]:
        """Run one iteration, sampling machine speed around and during
        every operation (see ``speed.py``)."""
        results = []
        sampler = speed.Sampler(self.workload.workdir / "speed")
        edge = sampler.edge()
        for op in self.workload.iteration(workers):
            sampler.reset(edge)
            t0 = perf_counter_ns()
            try:
                with sampler:
                    if tracer is None:
                        rc, stdout, stderr = run_cli(op.argv)
                    else:
                        rc, stdout, stderr = tracer.command(op.key, lambda: run_cli(op.argv))
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                rc, stdout, stderr = None, "", f"{type(exc).__name__}: {exc}"
            raw = (perf_counter_ns() - t0) / 1e9
            edge = sampler.edge()
            results.append(Result(op, raw, raw * sampler.scale(), rc, stdout, stderr))
        return results

    def check(self, results) -> None:
        for op, _, _, rc, stdout, stderr in results:
            self.attempted += 1
            try:
                if rc != 0:
                    raise workloads.CheckFailed(f"exit code {rc}: {stderr.strip()[-300:]}")
                replay = None if self.replayed else run_cli
                facts = self.workload.check(op, stdout, self.golden.get(op.key), replay)
                self.replayed = True
                if op.key in self.first and self._stable(facts) != self.first[op.key]:
                    raise workloads.CheckFailed("output differs from an earlier iteration")
                self.first.setdefault(op.key, self._stable(facts))
                self.last_facts[op.key] = facts
            except Exception as exc:  # any malformed output counts as a failure
                self.failed += 1
                if len(self.failures) < FAILURE_MESSAGES:
                    self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            finally:
                out = op.extra.get("out")
                if self.workload.kind == "campaign" and out is not None:
                    shutil.rmtree(out.parent, ignore_errors=True)

    @staticmethod
    def _stable(facts: dict) -> str:
        # the report's size moves with its runtime_seconds digits
        return workloads.canonical({k: v for k, v in facts.items() if k != "report_bytes"})


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def quantile_ms(seconds: list[float], which: int) -> float:
    """``which``-th decile cut point in ms.  The inclusive method keeps the
    90th percentile of the few campaign commands in a run off the maximum."""
    return statistics.quantiles(seconds, n=10, method="inclusive")[which - 1] * 1e3


def wall(results: list[Result]) -> tuple[float, float]:
    """Scaled and raw wall time of one iteration's back-to-back operations."""
    return sum(r.scaled_s for r in results), sum(r.raw_s for r in results)


def measure(runner: Runner, seconds: float) -> dict:
    workload = runner.workload
    runner.check(runner.iteration())  # warm-up: checked, not timed
    walls: list[float] = []
    raw_walls: list[float] = []
    latencies: list[float] = []
    started = time.monotonic()
    while len(walls) < MIN_ITERATIONS[workload.kind] or time.monotonic() - started < seconds:
        results = runner.iteration()
        runner.check(results)
        scaled, raw = wall(results)
        walls.append(scaled)
        raw_walls.append(raw)
        latencies.extend(r.scaled_s for r in results)
    wall_s = statistics.median(walls)
    p90 = quantile_ms(latencies, 9)
    return {
        "metrics": {
            "wall_s": (wall_s, "s"),
            "ops_per_s": (workload.units / wall_s, "1/s"),
            "query_ms_p50": (quantile_ms(latencies, 5), "ms"),
            "query_ms_p90": (p90, "ms"),
            "success_rate": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "info": {
            "iterations": len(walls),
            "query_samples": len(latencies),
            "samples_beyond_p90": sum(1 for x in latencies if x * 1e3 > p90),
            "iteration_wall_s": walls,
            "raw_wall_s": statistics.median(raw_walls),
            "speed_scale": statistics.median(walls) / statistics.median(raw_walls),
        },
    }


def measure_traced(runner: Runner, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced one-worker iterations (plus untraced
    iterations at the workload's own worker count, for the pool speed-up)."""
    workload = runner.workload
    tracer = spans.Tracer()
    runner.check(runner.iteration(workers=1))  # warm-up
    plain: list[float] = []
    traced: list[tuple[float, float]] = []
    pooled: list[float] = []
    started = time.monotonic()
    while len(traced) < MIN_TRACED or time.monotonic() - started < seconds:
        results = runner.iteration(workers=1)
        runner.check(results)
        plain.append(wall(results)[0])
        uninstall = tracer.install()
        try:
            results = runner.iteration(workers=1, tracer=tracer)
        finally:
            uninstall()
        runner.check(results)
        traced.append(wall(results))
        if workload.kind == "campaign":
            results = runner.iteration(workers=2)
            runner.check(results)
            pooled.append(wall(results)[0])
    tracer.write(trace_path)
    instances = sum(1 for rec in tracer.spans if rec[spans.NAME] in ("search.classify", "formats.load"))
    scaled_total = sum(s for s, _ in traced)
    raw_total = sum(r for _, r in traced)
    metrics = spans.layer_metrics(tracer, len(traced), instances, raw_total, scaled_total / raw_total)
    speedup = statistics.median(plain) / statistics.median(pooled) if pooled else 0.0
    facts = runner.last_facts.get("search", {})
    summary = facts.get("summary", {"cells": [], "breach_totals": {}})
    cells = summary["cells"]
    breaches = summary["breach_totals"]
    metrics.update({
        "search.pool_speedup": (speedup, "ratio"),
        "search.outcomes.match": (sum(c[3] for c in cells), "count"),
        "search.outcomes.degenerate": (sum(c[4] for c in cells), "count"),
        "search.outcomes.violation": (sum(c[5] for c in cells), "count"),
        "search.breaches.dissipativity": (breaches.get("dissipativity", 0), "count"),
        "search.breaches.rank_agreement": (breaches.get("rank_agreement", 0), "count"),
        "search.artifacts_written": (facts.get("artifacts_written", 0), "count"),
        "search.artifact_bytes": (facts.get("artifact_bytes", 0), "bytes"),
        "search.report_bytes": (facts.get("report_bytes", 0), "bytes"),
        "trace.overhead_ratio": (
            statistics.median(s for s, _ in traced) / statistics.median(plain), "ratio"),
    })
    return {
        "metrics": metrics,
        "info": {"iterations": len(traced), "untraced_iterations": len(plain),
                 "pooled_iterations": len(pooled), "spans": len(tracer.spans),
                 "trace_file": str(trace_path.relative_to(ROOT))},
    }


def provenance() -> dict:
    import numpy
    import perturbrank

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": model,
        "cpus": len(os.sched_getaffinity(0)),
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "perturbrank": perturbrank.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    sampler = speed.Sampler(args.workdir / "speed")
    sampler.edge()
    with sampler:
        import perturbrank.cli  # noqa: F401  (the set-up cost includes the import)

        workload = build(args.workload, args.seed, args.tiny, args.workdir)
    sampler.edge()
    if args.mode == "setup":
        print(json.dumps({"speed_scale": sampler.scale()}))
        return 0
    runner = Runner(workload, args.seed, args.tiny)
    if args.trace:
        result = measure_traced(runner, args.seconds, args.trace_file)
    else:
        result = measure(runner, args.seconds)
    result["info"].update(goldens=runner.has_goldens, failures=runner.failures)
    result.update(attempted=runner.attempted, failed=runner.failed, provenance=provenance())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
