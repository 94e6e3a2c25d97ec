"""Record ``goldens.json`` from the current tree.

    python3 perfbench/record_goldens.py

Runs one iteration of every workload for each seed in GOLDEN_SEEDS and
stores the checked facts: per-cell counts, verdict and breach totals of
each campaign; the exact-field digest and float outputs of each query; the
symbolic report digests, which no seed changes.  Goldens pin the outputs
of the tree they were recorded from, so re-record them only when an
output is meant to change, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads
import worker

GOLDEN_SEEDS = range(32)


def record(name: str, seed: int) -> dict:
    (workloads.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="goldens-", dir=workloads.ROOT / ".perfbench_work"))
    try:
        workload = worker.build(name, seed, False, workdir)
        facts = {}
        for op in workload.iteration():
            rc, stdout, stderr = worker.run_cli(op.argv)
            if rc != 0:
                raise SystemExit(f"{name} seed {seed} {op.key}: exit {rc}: {stderr}")
            fact = workload.check(op, stdout, None, worker.run_cli)
            facts[op.key] = fact["summary"] if workload.kind == "campaign" else fact
        return facts
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    goldens = {}
    for name, workload in workloads.WORKLOADS.items():
        seeds = {str(seed): record(name, seed) for seed in GOLDEN_SEEDS}
        entry = {"config": workload.config_id, "seeds": seeds}
        if workload.kind == "queries":
            fixed = {key: fact for key, fact in seeds["0"].items() if key.startswith("symbolic:")}
            for facts in seeds.values():
                for key in fixed:
                    if facts.pop(key) != fixed[key]:
                        raise SystemExit(f"{key} differs between seeds")
            entry["fixed"] = fixed
        goldens[name] = entry
        print(f"{name}: {len(seeds)} seeds")
    with open(workloads.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
