"""Workload definitions: inputs built from the seed, the operations each
iteration runs through ``perturbrank.cli.run_command``, and the checks that
decide whether an operation's output is correct.

Every operation is one CLI command with stdout captured.  An operation
fails when it raises, exits with an unexpected code, or produces output
that fails its check.  Checks compare against goldens recorded at the
commit that defined the benchmark (``goldens.json``) when the seed has
them, and always apply the seed-independent invariants, so a claim can be
rechecked on a fresh seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS_PATH = HERE / "goldens.json"
W1_PATH = ROOT / "instances" / "w1.json"

#: Relative tolerances for float outputs.  Planned rewrites of the float
#: path (a pure-Python Cholesky in place of numpy) move results by a few
#: ulps; the residual is a difference quotient, which amplifies that.
EIG_RTOL = 1e-9
PHI_RTOL = 1e-9
RESIDUAL_RTOL = 1e-6

#: Residual of the exact Gaussian at h = 0.01 is O(h^2); any seed stays
#: far below this.
RESIDUAL_CEILING = 1e-2

#: Mirrors the package's rank-agreement rule: eigenvalues above this times
#: max|M| count as nonzero.
NUMERIC_RANK_TOLERANCE = 1e-8


class CheckFailed(Exception):
    """An operation's output did not pass its check."""


@dataclass
class Op:
    """One CLI command and how to check its output."""

    key: str
    argv: list[str]
    extra: dict = field(default_factory=dict)


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(a), abs(b), scale)


# -- campaigns ---------------------------------------------------------------


class Campaign:
    """Closed loop of identical ``search`` commands, one client, one process.

    The campaign seed is the benchmark seed; the report is a pure function
    of the configuration, so every iteration is checked against the same
    expectation.
    """

    kind = "campaign"

    def __init__(self, name: str, n_max: int, samples: int, workers: int):
        self.name = name
        self.n_max = n_max
        self.samples = samples
        self.workers = workers

    def tiny(self) -> "Campaign":
        return Campaign(self.name, 3, 2, self.workers)

    @property
    def config_id(self) -> str:
        return f"n2-{self.n_max}:K2-{self.n_max}:s{self.samples}"

    @property
    def units(self) -> int:
        """Instances classified per iteration."""
        return (self.n_max - 1) ** 2 * self.samples

    def prepare(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.counter = 0

    def iteration(self, workers: int | None = None) -> list[Op]:
        self.counter += 1
        out = self.workdir / f"campaign-{self.counter}" / "report.json"
        out.parent.mkdir(parents=True)
        top = str(self.n_max)
        argv = [
            "search", "--n-min", "2", "--n-max", top, "--k-min", "2", "--k-max", top,
            "--samples", str(self.samples), "--seed", str(self.seed),
            "--workers", str(workers or self.workers), "--out", str(out),
        ]
        return [Op(key="search", argv=argv, extra={"out": out})]

    def summary(self, report: dict) -> dict:
        """The part of a report the goldens pin down."""
        cells = [
            [c["n"], c["K"], c["samples"], c["matches"], c["degenerate"], len(c["violations"])]
            for c in report["cells"]
        ]
        return {
            "verdict": report["verdict"],
            "cells": cells,
            "breach_totals": report["breach_totals"],
        }

    def check(self, op: Op, stdout: str, golden: dict | None, replay) -> dict:
        """Check one campaign report; returns facts for later comparison."""
        out: Path = op.extra["out"]
        report = json.loads(out.read_text(encoding="utf-8"))
        summary = self.summary(report)
        if golden is not None:
            for key in ("verdict", "cells", "breach_totals"):
                if summary[key] != golden[key]:
                    raise CheckFailed(f"{key} differs from the golden")
        top = self.n_max
        want = [(n, k) for n in range(2, top + 1) for k in range(2, top + 1)]
        if [(c[0], c[1]) for c in summary["cells"]] != want:
            raise CheckFailed("report cells do not cover the configured grid")
        for n, k, samples, matches, degenerate, violations in summary["cells"]:
            if samples != self.samples or matches + degenerate + violations != samples:
                raise CheckFailed(f"cell n={n} K={k}: counts do not sum to the samples")
            if violations:
                raise CheckFailed(f"cell n={n} K={k}: {violations} rank-law violations")
        if summary["verdict"] != "all_match":
            raise CheckFailed(f"verdict {summary['verdict']!r}")
        artifact_dir = out.parent / "report-artifacts"
        written = sorted(os.listdir(artifact_dir)) if artifact_dir.is_dir() else []
        digest = hashlib.sha256()
        artifact_bytes = 0
        for name in written:
            data = (artifact_dir / name).read_bytes()
            artifact_bytes += len(data)
            digest.update(name.encode() + b"\0" + data)
        if replay:
            self.replay(report, artifact_dir, written, replay)
        return {
            "summary": summary,
            "artifacts": digest.hexdigest(),
            "artifacts_written": len(written),
            "artifact_bytes": artifact_bytes,
            "report_bytes": out.stat().st_size,
        }

    def replay(self, report: dict, artifact_dir: Path, written: list[str], run) -> None:
        """Every written artifact must replay through ``analyze`` to the
        recorded instance and rank."""
        expected: dict[str, tuple[dict, int | None, dict]] = {}
        for cell in report["cells"]:
            generic = min(cell["n"] - 1, cell["K"]) if cell["degenerate"] == 0 else None
            for v in cell["violations"]:
                if v.get("artifact"):
                    rank = v["report"]["structure"]["rank_exact"]
                    expected[v["artifact"]] = (v["instance"], rank, {})
            for b in cell["breaches"]:
                if b.get("artifact"):
                    rank = b["detail"].get("rank_exact", generic)
                    expected[b["artifact"]] = (b["instance"], rank, b["detail"])
        if sorted(expected) != written:
            raise CheckFailed("artifact files differ from the artifacts the report names")
        for name in written:
            instance, rank, detail = expected[name]
            rc, stdout, _ = run(["analyze", str(artifact_dir / name)])
            if rc != 0:
                raise CheckFailed(f"replay of {name} exited {rc}")
            replayed = json.loads(stdout)
            if replayed["instance"] != instance:
                raise CheckFailed(f"replay of {name}: instance differs from the report")
            if rank is not None and replayed["structure"]["rank_exact"] != rank:
                raise CheckFailed(f"replay of {name}: rank differs from the recorded rank")
            top = detail.get("max_eigenvalue")
            if top is not None and not close(
                replayed["structure"]["eigenvalues"][-1], top, EIG_RTOL, detail.get("scale", 0.0)
            ):
                raise CheckFailed(f"replay of {name}: top eigenvalue differs from the breach")


# -- queries -----------------------------------------------------------------

#: (n, K) of the generated instance files.  analyze covers n in {2,4,8} x
#: K in {2,8}; (4, 4) adds the middle K for phi0 and residual.
QUERY_SHAPES = ((2, 2), (2, 8), (4, 2), (4, 4), (4, 8), (8, 2), (8, 8))
RESIDUAL_SHAPES = ((4, 2), (4, 4), (4, 8))
SYMBOLIC_KS = (2, 3, 4, 5, 6)
TINY_SHAPES = ((2, 2), (3, 2), (3, 3))


def _signed(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def markov_instance(rng: random.Random, n: int, k: int, label: str) -> dict:
    """An instance file whose A has positive off-diagonal entries and zero
    column sums (an irreducible generator, hence admissible) and whose K
    transport diagonals have distinct entries."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            if i != j:
                rows[i][j] = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        rows[j][j] = -sum(rows[i][j] for i in range(n) if i != j)
    diagonals: list[tuple[Fraction, ...]] = []
    while len(diagonals) < k:
        d = tuple(_signed(rng, 3) for _ in range(n))
        if len(set(d)) == n and d not in diagonals:
            diagonals.append(d)
    return {
        "format_version": 1,
        "n": n,
        "K": k,
        "A": [[str(x) for x in row] for row in rows],
        "D": [[str(x) for x in d] for d in diagonals],
        "label": label,
    }


def _csv(rng: random.Random, k: int, spread: float) -> str:
    return ",".join(f"{rng.uniform(-spread, spread):.3f}" for _ in range(k))


class Queries:
    """A fixed mix of one-shot user commands, shuffled per round.

    One round holds 25 commands, so over R rounds the 50th and 90th
    percentiles (positions 12.5 R and 22.5 R of the sorted samples) fall in
    the middle of one command's R samples rather than on the edge between
    two commands of different cost.
    """

    kind = "queries"

    def __init__(self, name: str, shapes=QUERY_SHAPES, residual_shapes=RESIDUAL_SHAPES,
                 symbolic_ks=SYMBOLIC_KS):
        self.name = name
        self.shapes = shapes
        self.residual_shapes = residual_shapes
        self.symbolic_ks = symbolic_ks

    def tiny(self) -> "Queries":
        return Queries(self.name, TINY_SHAPES, ((3, 2), (3, 3)), (2, 3))

    @property
    def config_id(self) -> str:
        return "q" + "".join(f"{n}x{k}" for n, k in self.shapes)

    def prepare(self, workdir: Path, seed: int) -> None:
        """Write the instance files and fix each command's arguments."""
        self.workdir = workdir
        rng = random.Random(f"perfbench-queries:{seed}")
        files = {"w1": (str(W1_PATH), 2, 2)}
        for n, k in self.shapes:
            key = f"n{n}K{k}"
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(markov_instance(rng, n, k, f"perfbench-{key}")),
                            encoding="utf-8")
            files[key] = (str(path), n, k)
        ops: list[Op] = []
        for key, (path, n, k) in files.items():
            ops.append(Op(f"analyze:{key}", ["analyze", path], extra={"path": path}))
        for key, (path, n, k) in files.items():
            argv = ["phi0", "--instance", path, "--sigma", "2.0", "--t", "0.5", "--eps", "1.0",
                    "--amplitude", "1.0", f"--point={_csv(rng, k, 1.0)}"]
            ops.append(Op(f"phi0:{key}", argv, extra={"n": n}))
        residual_keys = ["w1"] + [f"n{n}K{k}" for n, k in self.residual_shapes]
        for key in residual_keys:
            path, n, k = files[key]
            argv = ["residual", "--instance", path, "--t", "1.0", f"--zeta={_csv(rng, k, 0.5)}",
                    "--h", "0.01", "--sigma", "2.0"]
            ops.append(Op(f"residual:{key}", argv))
        for k in self.symbolic_ks:
            out = workdir / f"symbolic-K{k}.json"
            ops.append(Op(f"symbolic:K{k}", ["symbolic", "--k", str(k), "--out", str(out)],
                          extra={"out": out}))
        self.ops = ops
        self.order_rng = random.Random(f"perfbench-order:{seed}")

    @property
    def units(self) -> int:
        """Queries completed per iteration."""
        return len(self.ops)

    def iteration(self, workers: int | None = None) -> list[Op]:
        round_ = list(self.ops)
        self.order_rng.shuffle(round_)
        return round_

    def check(self, op: Op, stdout: str, golden: dict | None, replay) -> dict:
        kind = op.key.split(":")[0]
        return getattr(self, f"_check_{kind}")(op, stdout, golden)

    def _check_analyze(self, op: Op, stdout: str, golden: dict | None) -> dict:
        report = json.loads(stdout)
        structure = report["structure"]
        m = [[Fraction(x) for x in row] for row in report["transfer"]["M"]]
        k = len(m)
        eigs = structure["eigenvalues"]
        scale = float(max((abs(x) for row in m for x in row), default=0))
        numeric_rank = sum(1 for ev in eigs if abs(ev) > NUMERIC_RANK_TOLERANCE * scale)
        rank = structure["rank_exact"]
        if numeric_rank != rank:
            raise CheckFailed(f"{op.key}: exact rank {rank}, numeric rank {numeric_rank}")
        if len(structure["kernel_directions"]) != k - rank:
            raise CheckFailed(f"{op.key}: kernel dimension is not K - rank")
        if structure["rank_matches_prediction"] != (rank == structure["predicted_rank"]):
            raise CheckFailed(f"{op.key}: rank_matches_prediction is inconsistent")
        with open(op.extra["path"], encoding="utf-8") as fh:
            source = json.load(fh)
        if any(report["instance"][key] != source[key] for key in ("n", "K", "A", "D")):
            raise CheckFailed(f"{op.key}: report instance differs from the file")
        facts = {"exact": sha256_text(canonical(analyze_exact_fields(report))), "eigenvalues": eigs}
        if golden is not None:
            if facts["exact"] != golden["exact"]:
                raise CheckFailed(f"{op.key}: exact fields differ from the golden")
            top = max((abs(x) for x in golden["eigenvalues"]), default=0.0)
            if len(eigs) != len(golden["eigenvalues"]) or not all(
                close(a, b, EIG_RTOL, top) for a, b in zip(eigs, golden["eigenvalues"])
            ):
                raise CheckFailed(f"{op.key}: eigenvalues differ from the golden")
        return facts

    def _check_phi0(self, op: Op, stdout: str, golden: dict | None) -> dict:
        values = json.loads(stdout)
        if len(values) != op.extra["n"] or not all(math.isfinite(x) and x > 0 for x in values):
            raise CheckFailed(f"{op.key}: expected {op.extra['n']} positive finite values")
        if golden is not None and not all(
            close(a, b, PHI_RTOL) for a, b in zip(values, golden["values"])
        ):
            raise CheckFailed(f"{op.key}: values differ from the golden")
        return {"values": values}

    def _check_residual(self, op: Op, stdout: str, golden: dict | None) -> dict:
        value = json.loads(stdout)
        if not (math.isfinite(value) and 0 <= value < RESIDUAL_CEILING):
            raise CheckFailed(f"{op.key}: residual {value!r} is not small")
        if golden is not None and not close(value, golden["value"], RESIDUAL_RTOL, 1e-12):
            raise CheckFailed(f"{op.key}: residual differs from the golden")
        return {"value": value}

    def _check_symbolic(self, op: Op, stdout: str, golden: dict | None) -> dict:
        report = op.extra["out"].read_text(encoding="utf-8")
        data = json.loads(report)
        if data.get("rank_one_identity") is not True:
            raise CheckFailed(f"{op.key}: rank-one identity not verified")
        facts = {"report": sha256_text(report)}
        if golden is not None and facts["report"] != golden["report"]:
            raise CheckFailed(f"{op.key}: report differs from the golden")
        return facts


def analyze_exact_fields(report: dict) -> dict:
    """The exact fields of an analyze report the goldens pin; fields added
    later (inertia, diagnostics) are left out on purpose."""
    instance = report["instance"]
    spectral = report["spectral"]
    return {
        "instance": {k: instance.get(k) for k in ("format_version", "n", "K", "A", "D", "H", "label")},
        "spectral": {k: spectral.get(k) for k in ("h1", "h1_star", "stable")},
        "G": report["transfer"]["G"],
        "M": report["transfer"]["M"],
        "rank_exact": report["structure"]["rank_exact"],
        "kernel_directions": report["structure"]["kernel_directions"],
    }


WORKLOADS = {
    # Small cells: cost is per-instance overhead (Fraction churn, generator
    # rejection loops, classify, breach artifacts), not charpoly.
    "campaign-small": Campaign("campaign-small", n_max=5, samples=10, workers=1),
    # n = 8 cells dominate; charpoly and the double validation show here,
    # and whole cells handed to 2 workers leave a one-core tail.
    "campaign-wide": Campaign("campaign-wide", n_max=8, samples=2, workers=2),
    # Parse/serialize, the float profile path and symbolic/multipoly, none
    # of which the campaigns touch.
    "queries": Queries("queries"),
}
