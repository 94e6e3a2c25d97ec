#!/usr/bin/env python3
"""Print per-stage times of the one-shot query path or of a campaign, in process.

    PYTHONPATH=src python3 tools/stage_times.py [--repeat N] [--shapes 4x8,8x8]
    PYTHONPATH=src python3 tools/stage_times.py [--repeat N] --campaign SEED

For each (n, K) shape (by default those of the benchmark's queries
workload) a generated Markov instance is written to a file, and each
stage runs N times on it; the best time in milliseconds is printed as one
JSON object per shape.  The stages, in the order a query runs them:
``parse`` (``load_instance_file``), ``certify`` (``validate_system``),
``build_M``, the dissipativity proof ``inertia`` and the float test it
spares, ``jacobi``, the profile queries ``phi0`` (``leading_term_eval``)
and ``residual`` (``pde_residual``), and ``dumps`` of the ``analyze``
report.

With ``--campaign SEED`` the instances are those of the benchmark's
campaign-small grid (n, K in 2..5, 10 per cell, families alternating),
under that campaign seed, and each stage runs N times over all of them;
the best time is printed in milliseconds per instance.  The stages, in
the order a campaign runs them: ``generate`` (``generate_instance``),
split into ``generate.markov`` (the Markov base), ``generate.diagonals``
and ``generate.candidates`` (the rest: the similarity candidates and the
certificate of the accepted A), ``build_M``, ``analyze``
(``analyze_structure``) and ``serialize`` (the artifact of each flagged
instance and the report, through ``dumps``).  Best-of-N times are
comparable only between runs on one machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import timeit
from pathlib import Path

import perturbrank.model as model
from perturbrank.asymptotics import VIOLATION, ProfileQuery, analyze_structure, build_M
from perturbrank.asymptotics import jacobi_eigenvalues, leading_term_eval, pde_residual
from perturbrank.exact_linalg import inertia
from perturbrank.formats import build_report, dumps, instance_to_dict, load_instance_file
from perturbrank.model import FAMILIES, GeneratorConfig, generate_instance, validate_system
from perturbrank.search import CampaignConfig, derive_instance_seed, run_campaign

QUERY_SHAPES = "2x2,2x8,4x2,4x4,4x8,8x2,8x8"

#: The benchmark's campaign-small grid: n and K in 2..5, 10 samples per cell.
CAMPAIGN_TOP, CAMPAIGN_SAMPLES = 5, 10


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


def _generate_parts(configs: list[GeneratorConfig]) -> dict:
    """Nanoseconds of one generation pass over configs: in total, in the
    Markov base, in the diagonals, and in the rest."""
    names = {"generate.markov": "_markov_generator", "generate.diagonals": "_sample_diagonals"}
    clock = dict.fromkeys(names, 0)

    def timed(key, fn):
        def run(*args):
            start = time.perf_counter_ns()
            try:
                return fn(*args)
            finally:
                clock[key] += time.perf_counter_ns() - start

        return run

    saved = {name: getattr(model, name) for name in names.values()}
    try:
        for key, name in names.items():
            setattr(model, name, timed(key, saved[name]))
        start = time.perf_counter_ns()
        for cfg in configs:
            generate_instance(cfg)
        total = time.perf_counter_ns() - start
    finally:
        for name, fn in saved.items():
            setattr(model, name, fn)
    parts = {"generate": total, **clock}
    parts["generate.candidates"] = total - sum(clock.values())
    return parts


def campaign_times(seed: int, repeat: int) -> dict:
    cells = [(n, k) for n in range(2, CAMPAIGN_TOP + 1) for k in range(2, CAMPAIGN_TOP + 1)]
    configs = [
        GeneratorConfig(
            n=n, K=k, seed=derive_instance_seed(seed, n, k, index),
            family=FAMILIES[index % len(FAMILIES)],
        )
        for n, k in cells
        for index in range(CAMPAIGN_SAMPLES)
    ]
    instances = [generate_instance(cfg) for cfg in configs]
    structures = [build_M(spec, sd) for spec, sd in instances]
    verdicts = [analyze_structure(ts) for ts in structures]
    flagged = [
        spec for (spec, _), v in zip(instances, verdicts) if v.outcome == VIOLATION or v.breaches
    ]
    grid = ((2, CAMPAIGN_TOP), (2, CAMPAIGN_TOP))
    report = run_campaign(CampaignConfig(*grid, CAMPAIGN_SAMPLES, seed))
    best = {}
    for _ in range(repeat):
        for key, ns in _generate_parts(configs).items():
            best[key] = min(best.get(key, ns), ns)
    stages = {
        "build_M": lambda: [build_M(spec, sd) for spec, sd in instances],
        "analyze": lambda: [analyze_structure(ts) for ts in structures],
        "serialize": lambda: [dumps(instance_to_dict(spec)) for spec in flagged] + [dumps(report)],
    }
    ms = {key: round(ns / 1e6 / len(configs), 4) for key, ns in best.items()}
    for name, run in stages.items():
        ms[name] = round(best_ms(run, repeat) / len(configs), 4)
    return {"seed": seed, "instances": len(configs), "ms_per_instance": ms}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=50, help="runs per stage (default: 50)")
    parser.add_argument("--shapes", default=QUERY_SHAPES, help="comma-separated NxK shapes")
    parser.add_argument(
        "--campaign", type=int, metavar="SEED",
        help="time the stages of the campaign-small grid under this campaign seed instead",
    )
    args = parser.parse_args(argv)
    if args.campaign is not None:
        times = campaign_times(args.campaign, args.repeat)
        print(json.dumps({"repeat": args.repeat, "campaign": times}, indent=2))
        return 0
    shapes = [tuple(map(int, shape.split("x"))) for shape in args.shapes.split(",")]
    with tempfile.TemporaryDirectory() as folder:
        times = {f"n{n}K{k}": stage_times(n, k, args.repeat, Path(folder)) for n, k in shapes}
    print(json.dumps({"repeat": args.repeat, "ms": times}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
