"""Smoke test for tools/cold_start.py, the per-command cold-start timer."""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TOOL = os.path.join(ROOT, "tools", "cold_start.py")


def run_tool(*args):
    return subprocess.run([sys.executable, TOOL, "--repeat", "1", *args],
                          capture_output=True, text=True)


def test_prints_a_median_per_mode_checkout_and_command():
    proc = run_tool("--commands", "import,analyze", ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    data = json.loads(proc.stdout)
    assert data["repeat"] == 1
    assert list(data["ms"]) == ["cached", "compiled"]
    for by_checkout in data["ms"].values():
        assert list(by_checkout) == [ROOT]
        times = by_checkout[ROOT]
        assert list(times) == ["import", "analyze"]
        assert all(math.isfinite(ms) and ms > 0 for ms in times.values())


def test_a_failing_command_is_an_error(tmp_path):
    # a package that cannot be imported: the child exits 1 and the tool says so
    package = tmp_path / "src" / "perturbrank"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise ImportError('broken on purpose')\n")
    proc = run_tool("--commands", "help", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: -m perturbrank --help in ")
    assert "broken on purpose" in proc.stderr


def test_a_checkout_without_the_package_is_an_error(tmp_path):
    proc = run_tool("--commands", "help", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {tmp_path} has no src/perturbrank\n"
