#!/usr/bin/env python3
"""Print the cold-start wall time of each command, one fresh interpreter a run.

    python3 tools/cold_start.py [--repeat N] [--commands import,analyze] [CHECKOUT ...]

Each run is a new ``python3`` process with ``PYTHONPATH`` set to a copy
of the checkout's ``src/``, timed from start to exit; the median of N
runs in milliseconds is printed per bytecode mode, checkout and command,
as one JSON object.  Two modes are timed, each on its own copy, made
without ``__pycache__``: ``cached`` compiles the copy once beforehand
and runs with bytecode caching on, as an installed package or a second
run from a checkout does; ``compiled`` runs with
``PYTHONDONTWRITEBYTECODE=1``, so every run compiles the package's
source, as a first run from a fresh checkout does.  The standard
library's own bytecode is used in both.  The commands: ``import``
(``import perturbrank.cli`` alone), ``help`` (``--help``), ``analyze``,
``phi0`` and ``residual`` on this repository's ``instances/w1.json``,
``symbolic --k 2`` and a one-cell, one-worker ``search`` whose report
goes to a temporary folder.  The commands run as ``python3 -m
perturbrank``.  With two checkouts (say a parent commit and a change)
every repeat runs each command once per mode in each, and the order of
the checkouts flips from one repeat to the next.  CHECKOUT defaults to
the current directory.  Medians are comparable only between runs on
one machine.  Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

W1 = str(Path(__file__).resolve().parent.parent / "instances" / "w1.json")
COMMANDS = {
    "import": ["-c", "import perturbrank.cli"],
    "help": ["-m", "perturbrank", "--help"],
    "analyze": ["-m", "perturbrank", "analyze", W1],
    "phi0": ["-m", "perturbrank", "phi0", "--instance", W1, "--sigma", "1", "--t", "1",
             "--eps", "1", "--amplitude", "1", "--point", "0,0"],
    "residual": ["-m", "perturbrank", "residual", "--instance", W1, "--t", "1",
                 "--zeta", "0,0", "--h", "0.01"],
    "symbolic": ["-m", "perturbrank", "symbolic", "--k", "2"],
    "search": ["-m", "perturbrank", "search", "--n-min", "2", "--n-max", "2",
               "--k-min", "2", "--k-max", "2", "--samples", "1", "--seed", "0",
               "--workers", "1", "--out", "campaign.json"],
}


MODES = ("cached", "compiled")


def copy_src(checkout: Path, dest: Path, mode: str) -> Path:
    """A copy of checkout's src/ without bytecode; precompiled for ``cached``."""
    src = checkout / "src"
    if not (src / "perturbrank").is_dir():
        raise RuntimeError(f"{checkout} has no src/perturbrank")
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    if mode == "cached" and not compileall.compile_dir(dest, quiet=1):
        raise RuntimeError(f"{dest} does not compile")
    return dest


def run_ms(src: Path, mode: str, args: list[str], folder: str) -> float:
    """Wall time of one fresh interpreter; a failed command raises."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if mode == "compiled":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=folder, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} in {src} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return elapsed * 1e3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[Path(".")],
                        metavar="CHECKOUT")
    parser.add_argument("--repeat", type=int, default=11, help="runs per command (default: 11)")
    parser.add_argument("--commands", default=",".join(COMMANDS),
                        help="comma-separated subset of: " + ", ".join(COMMANDS))
    args = parser.parse_args(argv)
    commands = args.commands.split(",")
    unknown = sorted(set(commands) - set(COMMANDS))
    if unknown:
        parser.error(f"unknown commands: {', '.join(unknown)}")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    checkouts = [str(c) for c in args.checkouts]
    times = {mode: {c: {name: [] for name in commands} for c in checkouts} for mode in MODES}
    with tempfile.TemporaryDirectory() as folder:
        try:
            srcs = {(mode, c): copy_src(Path(c), Path(folder, mode, str(i)), mode)
                    for mode in MODES for i, c in enumerate(checkouts)}
            for repeat in range(args.repeat):
                order = checkouts if repeat % 2 == 0 else checkouts[::-1]
                for name in commands:
                    for mode in MODES:
                        for c in order:
                            ms = run_ms(srcs[mode, c], mode, COMMANDS[name], folder)
                            times[mode][c][name].append(ms)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    medians = {
        mode: {c: {name: round(statistics.median(runs), 1) for name, runs in by_name.items()}
               for c, by_name in by_checkout.items()}
        for mode, by_checkout in times.items()
    }
    print(json.dumps({"repeat": args.repeat, "ms": medians}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
