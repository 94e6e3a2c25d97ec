"""Tests for tools/src_stats.py, the src/ size, exported-name and CLI
option counter."""

import argparse
import importlib
import json
import os
import subprocess
import sys

import perturbrank
from perturbrank import cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TOOL = os.path.join(ROOT, "tools", "src_stats.py")
MODULES = ("exact_linalg", "model", "asymptotics", "formats",
           "multipoly", "symbolic", "search", "cli")


def test_counts_the_checkout():
    proc = subprocess.run([sys.executable, TOOL, ROOT], capture_output=True, text=True,
                          check=True)
    stats = json.loads(proc.stdout)
    assert sorted(stats) == ["cli_options", "exported_names", "src_lines"]
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
    # the live parser is the independent route: each subparser's actions
    # less its -h
    options = 0
    for action in cli._build_parser()._subparsers._group_actions:
        for sub in action.choices.values():
            options += sum(not isinstance(a, argparse._HelpAction) for a in sub._actions)
    assert stats["cli_options"] == options > 0


def test_exported_names_are_bound():
    # an __all__ entry names something its module defines; no library
    # module exports a name another one does (the package serves a name
    # from the first module listing it), and the package serves each as
    # that module's own object
    owner = {}
    for m in MODULES:
        module = importlib.import_module(f"perturbrank.{m}")
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], m
        if m == "cli":
            continue
        for name in module.__all__:
            assert owner.setdefault(name, m) == m, (name, owner[name], m)
            assert getattr(perturbrank, name) is getattr(module, name), (m, name)
    assert len(owner) > 0
