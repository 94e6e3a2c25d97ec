"""Smoke tests for tools/stage_times.py, the per-stage query and campaign timer."""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TOOL = os.path.join(ROOT, "tools", "stage_times.py")
STAGES = ["parse", "certify", "build_M", "inertia", "jacobi", "phi0", "residual", "dumps"]


def test_prints_each_stage_of_each_shape():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, TOOL, "--repeat", "2", "--shapes", "2x2,3x3"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert proc.stderr == ""
    data = json.loads(proc.stdout)
    assert data["repeat"] == 2
    assert list(data["ms"]) == ["n2K2", "n3K3"]
    for times in data["ms"].values():
        assert list(times) == STAGES
        assert all(math.isfinite(ms) and ms >= 0 for ms in times.values())


CAMPAIGN_STAGES = [
    "generate", "generate.markov", "generate.diagonals", "generate.candidates",
    "build_M", "analyze", "serialize",
]


def test_prints_each_stage_of_a_campaign():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, TOOL, "--repeat", "1", "--campaign", "7"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert proc.stderr == ""
    data = json.loads(proc.stdout)
    assert data["repeat"] == 1
    campaign = data["campaign"]
    assert (campaign["seed"], campaign["instances"]) == (7, 160)
    times = campaign["ms_per_instance"]
    assert list(times) == CAMPAIGN_STAGES
    assert all(math.isfinite(ms) and ms > 0 for ms in times.values())
    # the three parts of generate are one partition of each generate pass
    parts = sum(times[key] for key in CAMPAIGN_STAGES[1:4])
    assert abs(parts - times["generate"]) <= 1e-3
