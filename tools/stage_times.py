#!/usr/bin/env python3
"""Print per-stage times of the one-shot query path, in process.

    PYTHONPATH=src python3 tools/stage_times.py [--repeat N] [--shapes 4x8,8x8]

For each (n, K) shape (by default those of the benchmark's queries
workload) a generated Markov instance is written to a file, and each
stage runs N times on it; the best time in milliseconds is printed as one
JSON object per shape.  The stages, in the order a query runs them:
``parse`` (``load_instance_file``), ``certify`` (``validate_system``),
``build_M``, the dissipativity proof ``inertia`` and the float test it
spares, ``jacobi``, the profile queries ``phi0`` (``leading_term_eval``)
and ``residual`` (``pde_residual``), and ``dumps`` of the ``analyze``
report.  Best-of-N times are comparable only between runs on one machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import timeit
from pathlib import Path

from perturbrank.asymptotics import ProfileQuery, analyze_structure, build_M, jacobi_eigenvalues
from perturbrank.asymptotics import leading_term_eval, pde_residual
from perturbrank.exact_linalg import inertia
from perturbrank.formats import build_report, dumps, instance_to_dict, load_instance_file
from perturbrank.model import GeneratorConfig, generate_instance, validate_system

QUERY_SHAPES = "2x2,2x8,4x2,4x4,4x8,8x2,8x8"


def best_ms(run, repeat: int) -> float:
    return round(min(timeit.repeat(run, number=1, repeat=repeat)) * 1e3, 4)


def stage_times(n: int, k: int, repeat: int, folder: Path) -> dict:
    path = folder / f"n{n}K{k}.json"
    spec, _ = generate_instance(GeneratorConfig(n=n, K=k, seed=n * 10 + k))
    path.write_text(dumps(instance_to_dict(spec)), encoding="utf-8")
    spec = load_instance_file(str(path))
    sd = validate_system(spec)
    ts = build_M(spec, sd)
    point = tuple(0.1 * (i + 1) for i in range(k))
    phi0 = ProfileQuery(epsilon=1.0, t=0.5, x=point, sigma0=2.0, amplitude=1.0)
    residual = ProfileQuery(epsilon=1.0, t=1.0, x=(0.0,) * k, sigma0=2.0, amplitude=1.0)
    report = build_report(spec, sd, ts, analyze_structure(ts))
    stages = {
        "parse": lambda: load_instance_file(str(path)),
        "certify": lambda: validate_system(spec),
        "build_M": lambda: build_M(spec, sd),
        "inertia": lambda: inertia(ts.M),
        "jacobi": lambda: jacobi_eigenvalues(ts.M.to_float()),
        "phi0": lambda: leading_term_eval(sd, ts, phi0),
        "residual": lambda: pde_residual(ts.M, residual, point, 0.01),
        "dumps": lambda: dumps(report),
    }
    return {name: best_ms(run, repeat) for name, run in stages.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=50, help="runs per stage (default: 50)")
    parser.add_argument("--shapes", default=QUERY_SHAPES, help="comma-separated NxK shapes")
    args = parser.parse_args(argv)
    shapes = [tuple(map(int, shape.split("x"))) for shape in args.shapes.split(",")]
    with tempfile.TemporaryDirectory() as folder:
        times = {f"n{n}K{k}": stage_times(n, k, args.repeat, Path(folder)) for n, k in shapes}
    print(json.dumps({"repeat": args.repeat, "ms": times}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
