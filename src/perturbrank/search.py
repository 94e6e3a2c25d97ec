"""Randomized verification of the rank law and search for counterexamples.

Campaigns sweep a grid of (n, K) cells, sample admissible systems from the
generator families, and count each instance under the outcome and the
breaches of ``asymptotics.analyze_structure``.  Per-instance seeds are
derived by hashing (campaign seed, n, K, index), so the result set is a
pure function of the configuration no matter how work is scheduled: with
W workers, the search process and W - 1 children (never more processes
than cells) take cells off one shared counter, largest (n, K) first.
Violations and breaches are the valuable output: each is serialized as a
standalone instance file that the analyze command can replay.  A clean
sweep is evidence for the expected structure, never proof.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import suppress
from dataclasses import dataclass
from itertools import product

from .asymptotics import (
    BREACH_KINDS,
    DEGENERATE,
    MATCH,
    VIOLATION,
    analyze_structure,
    build_M,
)
from .formats import FORMAT_VERSION, build_report, dumps, instance_to_dict
from .model import FAMILIES, GeneratorConfig, GenerationFailed, generate_instance

__all__ = [
    "CampaignConfig",
    "RANGE_LIMITS",
    "derive_instance_seed",
    "run_campaign",
]

RANGE_LIMITS = (2, 8)


@dataclass(frozen=True)
class CampaignConfig:
    """Sweep description; the report is a pure function of this value."""

    n_range: tuple[int, int]
    K_range: tuple[int, int]
    samples_per_cell: int
    seed: int
    families: tuple[str, ...] = FAMILIES
    worker_count: int = 1

    def __post_init__(self):
        lo, hi = RANGE_LIMITS
        for name, (first, last) in (("n_range", self.n_range), ("K_range", self.K_range)):
            if not (lo <= first <= last <= hi):
                raise ValueError(
                    f"{name} must satisfy {lo} <= first <= last <= {hi}, "
                    f"got {(first, last)}"
                )
        if self.samples_per_cell < 1:
            raise ValueError("samples_per_cell must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not self.families:
            raise ValueError("at least one generator family is required")
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown generator families: {sorted(unknown)}")
        if len(set(self.families)) != len(self.families):
            raise ValueError(f"repeated generator families: {list(self.families)}")
        if self.worker_count < 1:
            raise ValueError("worker_count must be at least 1")


def derive_instance_seed(seed: int, n: int, k: int, index: int) -> int:
    """Stable 64-bit per-instance seed from the campaign coordinates."""
    digest = hashlib.blake2b(
        f"{seed}:{n}:{k}:{index}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _violation_name(n: int, k: int, index: int) -> str:
    return f"violation-n{n}-K{k}-index{index}.json"


def _breach_name(kind: str, n: int, k: int, index: int) -> str:
    return f"breach-{kind.replace('_', '-')}-n{n}-K{k}-index{index}.json"


def _write_artifact(artifact_dir: str | None, name: str, instance: dict) -> str | None:
    if artifact_dir is None:
        return None
    with open(os.path.join(artifact_dir, name), "w", encoding="utf-8") as fh:
        fh.write(dumps(instance))
    return name


def _run_cell(cfg: CampaignConfig, n: int, k: int, artifact_dir: str | None) -> dict:
    """Classify one (n, K) cell; returns its JSON-ready report entry."""
    cell: dict = {
        "n": n,
        "K": k,
        "samples": cfg.samples_per_cell,
        "matches": 0,
        "degenerate": 0,
        "violations": [],
        "breaches": [],
    }
    for index in range(cfg.samples_per_cell):
        family = cfg.families[index % len(cfg.families)]
        instance_seed = derive_instance_seed(cfg.seed, n, k, index)
        gen = GeneratorConfig(n=n, K=k, seed=instance_seed, family=family)
        try:
            spec, sd = generate_instance(gen)
        except GenerationFailed as exc:
            raise GenerationFailed(f"cell n={n}, K={k}, index={index}: {exc}") from exc
        ts = build_M(spec, sd)
        verdict = analyze_structure(ts)
        if verdict.outcome == MATCH:
            cell["matches"] += 1
        elif verdict.outcome == DEGENERATE:
            cell["degenerate"] += 1
        if verdict.outcome != VIOLATION and not verdict.breaches:
            continue
        instance = instance_to_dict(spec)  # one dict per flagged instance
        if verdict.outcome == VIOLATION:
            cell["violations"].append(
                {
                    "index": index,
                    "instance_seed": instance_seed,
                    "family": family,
                    "instance": instance,
                    "report": build_report(spec, sd, ts, verdict),
                    "artifact": _write_artifact(
                        artifact_dir, _violation_name(n, k, index), instance
                    ),
                }
            )
        for detail in verdict.breaches:
            kind = detail["kind"]
            cell["breaches"].append(
                {
                    "kind": kind,
                    "index": index,
                    "instance_seed": instance_seed,
                    "family": family,
                    "detail": {key: val for key, val in detail.items() if key != "kind"},
                    "instance": instance,
                    "artifact": _write_artifact(
                        artifact_dir, _breach_name(kind, n, k, index), instance
                    ),
                }
            )
    assert cell["matches"] + cell["degenerate"] + len(cell["violations"]) == cell["samples"]
    return cell


def _claim_cells(counter, grid: list, cfg: CampaignConfig, artifact_dir: str | None, conn=None):
    """[(grid index, cell)] for cells taken off the shared counter, largest first."""
    done = []
    try:
        while True:
            with counter.get_lock():
                index = counter.value = counter.value - 1
            if index < 0:
                break
            done.append((index, _run_cell(cfg, *grid[index], artifact_dir)))
    except BaseException as exc:
        counter.value = -1
        if conn is None or not isinstance(exc, Exception):
            raise
        done = exc
    return done if conn is None else conn.send(done)


def _collect(child, receive):
    """A child's cells or exception, read before the join, as a large result blocks its send."""
    try:
        with receive, suppress(EOFError):
            return receive.recv()
    finally:
        child.join()
    return ChildProcessError(f"campaign worker exited with code {child.exitcode}")


def run_campaign(cfg: CampaignConfig, artifact_dir: str | None = None) -> dict:
    """Run the sweep; returns the JSON-ready campaign report.

    The report is deterministic except for runtime_seconds.  With
    worker_count W > 1 the search process runs cells, largest (n, K) first,
    next to W - 1 children, never more processes than cells; a child's
    exception is raised here, and no child outlives the call.  When
    artifact_dir is given, each violation is written there as a standalone
    instance file named violation-n{n}-K{k}-index{i}.json, and each
    invariant breach as breach-{kind}-n{n}-K{k}-index{i}.json.  An
    artifact_dir that already holds files raises ValueError before any
    instance runs, so no artifact of an earlier campaign is left mixed in.
    The verdict reflects the rank law alone.
    """
    if artifact_dir is not None:
        if os.path.isdir(artifact_dir) and os.listdir(artifact_dir):
            raise ValueError(f"artifact directory {artifact_dir} is not empty")
        os.makedirs(artifact_dir, exist_ok=True)
    started = time.monotonic()
    (n_lo, n_hi), (k_lo, k_hi) = cfg.n_range, cfg.K_range
    grid = list(product(range(n_lo, n_hi + 1), range(k_lo, k_hi + 1)))
    if (workers := min(cfg.worker_count, len(grid))) > 1:
        import multiprocessing

        counter = multiprocessing.Value("i", len(grid))
        children = []
        try:
            for _ in range(workers - 1):
                receive, send = multiprocessing.Pipe(duplex=False)
                args = (counter, grid, cfg, artifact_dir, send)
                child = multiprocessing.Process(target=_claim_cells, args=args, daemon=True)
                child.start()
                send.close()
                children.append((child, receive))
            claimed = _claim_cells(counter, grid, cfg, artifact_dir)
        finally:
            sent = [_collect(*child) for child in children]
        for result in sent:
            if isinstance(result, Exception):
                raise result
            claimed += result
        cells = [cell for _, cell in sorted(claimed)]
    else:
        cells = [_run_cell(cfg, n, k, artifact_dir) for n, k in grid]
    totals = {
        key: sum(cell[key] for cell in cells) for key in ("samples", "matches", "degenerate")
    }
    totals["violations"] = sum(len(cell["violations"]) for cell in cells)
    breach_totals = dict.fromkeys(BREACH_KINDS, 0)
    for cell in cells:
        for breach in cell["breaches"]:
            breach_totals[breach["kind"]] += 1
    return {
        "format_version": FORMAT_VERSION,
        "config": {
            "n_range": list(cfg.n_range),
            "K_range": list(cfg.K_range),
            "samples_per_cell": cfg.samples_per_cell,
            "seed": cfg.seed,
            "families": list(cfg.families),
            "worker_count": cfg.worker_count,
        },
        "cells": cells,
        "totals": totals,
        "breach_totals": breach_totals,
        "verdict": "all_match" if totals["violations"] == 0 else "violations_found",
        "evidence_note": (
            "a clean sweep is randomized evidence for the predicted rank "
            "structure, not a proof"
        ),
        "runtime_seconds": time.monotonic() - started,
    }
