#!/usr/bin/env python3
"""Record a parent-against-change benchmark comparison as ``BENCH_<label>.json``.

    python3 tools/bench_json.py LABEL PARENT_CHECKOUT CHANGE_CHECKOUT

Each checkout is the root of a tree on which ``perfbench/run.py`` was run
with ``--trace 0``; its ``.perfbench_out/result-*.json`` files are read.
Runs made with ``--trace 1`` are no end-to-end measurement: they are kept
out of the comparison, and their metric values are recorded as they are,
under ``traced``, per workload, side and seed.
For every workload and every end-to-end metric declared in the change's
``BENCHMARK.json`` the file records, per side, the value of each run (by
seed), the median and the quartiles, and the pairs (runs of both sides
with the same seed) that the change won under the metric's "better"
direction.  Each side also carries the machine and provenance fields of
its runs and a SHA-256 over its ``src/`` files, which identifies the code
measured.  The file is written to the current directory.  Standard
library only; nothing under ``perfbench/`` is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

#: Fields of a result record that describe the machine and the versions.
PROVENANCE = ("machine", "cpu", "cpus", "system", "python", "numpy", "perturbrank", "seconds")


def source_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under src/."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_runs(root: Path, trace: int = 0) -> list[dict]:
    """The full-size result files of one checkout made with ``--trace trace``."""
    runs = []
    for path in sorted((root / ".perfbench_out").glob("result-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if data["record"]["trace"] == trace and not data["record"]["tiny"]:
            runs.append(data)
    return runs


def summarize(values: list[float]) -> dict:
    """Median and quartiles (the quartiles equal the median below two runs)."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def side(root: Path, runs: list[dict]) -> dict:
    """What identifies one side: its source digest and its distinct machines."""
    provenance = sorted(
        {json.dumps({k: r["record"].get(k) for k in PROVENANCE}, sort_keys=True) for r in runs}
    )
    return {"src_sha256": source_digest(root), "provenance": [json.loads(p) for p in provenance]}


def compare(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric: each side's runs and statistics, and pair wins."""
    out: dict = {}
    workloads = sorted({r["record"]["workload"] for r in parent + change})
    for workload in workloads:
        by_side = {
            name: {r["record"]["seed"]: r["result"] for r in runs if r["record"]["workload"] == workload}
            for name, runs in (("parent", parent), ("change", change))
        }
        entry: dict = {
            "failed": {name: sum(res["failed"] for res in results.values()) for name, results in by_side.items()},
            "attempted": {name: sum(res["attempted"] for res in results.values()) for name, results in by_side.items()},
            "metrics": {},
        }
        for metric in end_to_end:
            name = metric["name"]
            row: dict = {"unit": metric["unit"], "better": metric["better"]}
            values = {}
            for side_name, results in by_side.items():
                values[side_name] = {
                    seed: res["metrics"][name]["value"]
                    for seed, res in sorted(results.items())
                    if name in res["metrics"]
                }
                if values[side_name]:
                    runs = values[side_name]
                    row[side_name] = {"runs": {str(s): v for s, v in runs.items()},
                                      **summarize(list(runs.values()))}
            seeds = sorted(set(values["parent"]) & set(values["change"]))
            sign = -1 if metric["better"] == "lower" else 1
            row["pairs"] = len(seeds)
            row["change_wins"] = sum(
                1 for s in seeds if sign * (values["change"][s] - values["parent"][s]) > 0
            )
            entry["metrics"][name] = row
        out[workload] = entry
    return out


def traced(parent: list[dict], change: list[dict]) -> dict:
    """Every metric value of the traced runs, per workload, side and seed."""
    out: dict = {}
    for side_name, runs in (("parent", parent), ("change", change)):
        for r in runs:
            seeds = out.setdefault(r["record"]["workload"], {}).setdefault(side_name, {})
            seeds[str(r["record"]["seed"])] = {
                name: metric["value"] for name, metric in r["result"]["metrics"].items()
            }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load_runs(args.parent), load_runs(args.change)
    if not parent or not change:
        print("error: both checkouts need untraced result-*.json files in .perfbench_out/",
              file=sys.stderr)
        return 1
    bench = {
        "label": args.label,
        "parent": side(args.parent, parent),
        "change": side(args.change, change),
        "workloads": compare(parent, change, spec["end_to_end"]),
        "traced": traced(load_runs(args.parent, 1), load_runs(args.change, 1)),
    }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
