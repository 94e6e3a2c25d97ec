#!/usr/bin/env python3
"""Print the design numbers ROADMAP tracks: src/ lines, exported names
and CLI options.

    python3 tools/src_stats.py [CHECKOUT]

``src_lines`` is the newline count over every ``.py`` file under
``src/`` (what ``wc -l`` gives).  ``exported_names`` is the sum of the
lengths of the ``__all__`` lists of the eight package modules, and
``cli_options`` the number of ``add_argument`` calls in ``cli.py``; both
are read with ``ast`` so that nothing is imported.  CHECKOUT defaults to
the current directory.  Prints one JSON object.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

MODULES = (
    "exact_linalg", "model", "asymptotics", "formats",
    "multipoly", "symbolic", "search", "cli",
)


def src_lines(root: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (root / "src").rglob("*.py"))


def exported_names(module: Path) -> int:
    """Length of the module-level ``__all__`` list or tuple literal."""
    for node in ast.parse(module.read_text(encoding="utf-8")).body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return len(node.value.elts)
    raise ValueError(f"{module} has no literal __all__")


def cli_options(module: Path) -> int:
    """Number of ``add_argument`` calls: one per settable option or
    positional argument of the command line."""
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    package = args.checkout / "src" / "perturbrank"
    stats = {
        "src_lines": src_lines(args.checkout),
        "exported_names": sum(exported_names(package / f"{m}.py") for m in MODULES),
        "cli_options": cli_options(package / "cli.py"),
    }
    print(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
