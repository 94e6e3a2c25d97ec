"""Tests for tools/src_stats.py, the src/ size, exported-name and CLI
option counter."""

import argparse
import ast
import importlib
import json
import os
import subprocess
import sys

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
    # an __all__ entry names something its module defines, and the
    # package imports each name from the __all__ of the module it names
    for m in MODULES:
        module = importlib.import_module(f"perturbrank.{m}")
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], m
    init = os.path.join(ROOT, "src", "perturbrank", "__init__.py")
    with open(init, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"perturbrank.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
                assert alias.name in module.__all__, (node.module, alias.name)
                imported += 1
    assert imported > 0
