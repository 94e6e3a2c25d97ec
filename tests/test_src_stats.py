"""Tests for tools/src_stats.py, the src/ size and exported-name counter."""

import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TOOL = os.path.join(ROOT, "tools", "src_stats.py")
MODULES = ("exact_linalg", "model", "asymptotics", "formats",
           "multipoly", "symbolic", "search", "cli")


def test_counts_the_checkout():
    proc = subprocess.run([sys.executable, TOOL, ROOT], capture_output=True, text=True,
                          check=True)
    stats = json.loads(proc.stdout)
    assert sorted(stats) == ["exported_names", "src_lines"]
    # the imported modules' __all__ lists are the independent route
    exported = sum(len(importlib.import_module(f"perturbrank.{m}").__all__) for m in MODULES)
    assert stats["exported_names"] == exported
    lines = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    lines += len(fh.readlines())
    assert stats["src_lines"] == lines > 0
