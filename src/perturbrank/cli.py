"""Command-line front end.

Subcommands: ``analyze`` (full exact pipeline on one instance file),
``search`` (randomized rank-law campaign), ``symbolic`` (parametric
two-state family with identity verification), ``phi0`` (leading-order
profile value), and ``residual`` (finite-difference check that the
profile solves its limiting equation).

Exit codes: 0 on success, 1 on validation/parse/usage errors, and 2 when
a search finds rank-law violations — a distinct code so automation
notices a potential mathematical finding.

Importing this module loads only ``model`` and ``exact_linalg``; each
command imports the modules it runs on its first run.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys

from .model import FAMILIES, GenerationFailed, validate_system

__all__ = ["main", "run_command"]

# The pipeline names the handlers call, by the module that defines them.
# A command binds the names of the modules it runs into this module on its
# first run, so it imports no other module; a name already bound here, as
# a test or a tracer replaced it, is kept.
_PIPELINE = {
    "formats": ("build_report", "dumps", "load_instance_file"),
    "asymptotics": ("ProfileQuery", "analyze_structure", "build_M", "leading_term_eval",
                    "pde_residual"),
    "search": ("CampaignConfig", "run_campaign"),
    "symbolic": ("symbolic_report",),
}


def _bind(modules: tuple[str, ...]) -> None:
    bound = globals()
    for module in modules:
        for name in _PIPELINE[module]:
            if name not in bound:
                source = importlib.import_module(f"{__package__}.{module}")
                bound[name] = getattr(source, name)


def __getattr__(name: str):
    """A pipeline name read before any command bound it: bound now, so
    that replacing it replaces what the handler calls."""
    for module, names in _PIPELINE.items():
        if name in names:
            _bind((module,))
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    """argparse exits usage errors with code 2, which is reserved here for
    violation findings; remap them onto the validation exit code 1.  The
    message names the option first and quotes the rejected value in full,
    so it is cut to 300 characters."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message:.300}\n")


def _floats_csv(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r:.60}"
        ) from None


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on the first command: parsing
    keeps no state in it, and building it costs more than most commands."""
    parser = _Parser(
        prog="perturbrank",
        description=(
            "exact rank and spectral structure of the matrix governing "
            "leading-order profiles of singularly perturbed mass-transfer "
            "systems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    analyze = sub.add_parser(
        "analyze", help="validate an instance file, build M, report its structure"
    )
    analyze.add_argument("instance", help="path to an instance file")
    analyze.add_argument("--out", help="write the JSON report here instead of stdout")

    search = sub.add_parser("search", help="randomized rank-law campaign over a grid")
    search.add_argument("--n-min", type=int, required=True)
    search.add_argument("--n-max", type=int, required=True)
    search.add_argument("--k-min", type=int, required=True)
    search.add_argument("--k-max", type=int, required=True)
    search.add_argument("--samples", type=int, required=True, help="instances per cell")
    search.add_argument("--seed", type=int, required=True, help="campaign seed (no silent entropy)")
    search.add_argument(
        "--families",
        help="comma-separated subset of: " + ", ".join(FAMILIES),
    )
    search.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count (default: 1)",
    )
    search.add_argument("--out", required=True, help="campaign report file")

    symbolic = sub.add_parser(
        "symbolic", help="two-state family: parametric M and its closed forms"
    )
    symbolic.add_argument("--k", type=int, required=True, help="number of directions")
    symbolic.add_argument("--out", help="write the JSON report here as well")

    phi0 = sub.add_parser("phi0", help="leading-order state vector at a lab point")
    phi0.add_argument("--instance", required=True)
    phi0.add_argument("--sigma", type=float, required=True, help="initial Gaussian width")
    phi0.add_argument("--t", type=float, required=True)
    phi0.add_argument("--eps", type=float, required=True)
    phi0.add_argument("--amplitude", type=float, required=True)
    phi0.add_argument(
        "--point", type=_floats_csv, required=True, help="lab coordinates x1,...,xK"
    )

    residual = sub.add_parser(
        "residual", help="central-difference residual of the limiting equation"
    )
    residual.add_argument("--instance", required=True)
    residual.add_argument("--t", type=float, required=True)
    residual.add_argument(
        "--zeta", type=_floats_csv, required=True, help="comoving coordinates z1,...,zK"
    )
    residual.add_argument("--h", type=float, required=True, help="difference step")
    residual.add_argument("--sigma", type=float, default=1.0, help="initial Gaussian width")
    return parser


def _load(path: str):
    """The instance in the file at ``path``, its certificate and its M."""
    spec = load_instance_file(path)
    sd = validate_system(spec)
    return spec, sd, build_M(spec, sd)


def _cmd_analyze(args) -> int:
    spec, sd, ts = _load(args.instance)
    report = analyze_structure(ts)
    payload = dumps(build_report(spec, sd, ts, report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(
            f"rank {report.rank_exact} (predicted {report.predicted_rank}); "
            f"report written to {args.out}"
        )
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_search(args) -> int:
    families = FAMILIES if args.families is None else tuple(args.families.split(","))
    cfg = CampaignConfig(
        n_range=(args.n_min, args.n_max),
        K_range=(args.k_min, args.k_max),
        samples_per_cell=args.samples,
        seed=args.seed,
        families=families,
        worker_count=args.workers,
    )
    # checked before the campaign, whose report could not be written there
    if not os.path.basename(args.out) or os.path.isdir(args.out):
        raise ValueError(f"--out {args.out!r:.60} names a directory, not a file")
    artifact_dir = os.path.splitext(args.out)[0] + "-artifacts"
    data = run_campaign(cfg, artifact_dir=artifact_dir)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps(data))
    if not os.listdir(artifact_dir):
        os.rmdir(artifact_dir)
    totals = data["totals"]
    print(
        f"verdict: {data['verdict']} ({totals['matches']} matches, "
        f"{totals['degenerate']} degenerate, {totals['violations']} violations "
        f"in {totals['samples']} samples)"
    )
    flagged = {k: v for k, v in data["breach_totals"].items() if v}
    if flagged:
        noted = ", ".join(f"{count} {kind}" for kind, count in sorted(flagged.items()))
        print(f"invariant breaches recorded: {noted}; artifacts in {artifact_dir}")
    print(f"report written to {args.out}")
    return 2 if data["verdict"] == "violations_found" else 0


def _cmd_symbolic(args) -> int:
    data = symbolic_report(args.k)
    if not data["rank_one_identity"]:
        print(
            f"K = {args.k}: M failed to reduce to the rank-one dyad",
            file=sys.stderr,
        )
        return 1
    # written first, so a path that cannot be written prints no success
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps(data))
    spectrum = data["spectrum"]
    print(
        f"K = {args.k}: M = -c * Delta Delta^T verified identically "
        "(c = a*b*k / (a + b*k)^3)"
    )
    print(f"nonzero eigenvalue: {spectrum['nonzero_eigenvalue']['text']}")
    print(f"zero eigenvalue multiplicity: {spectrum['zero_multiplicity']}")
    if args.out:
        print(f"report written to {args.out}")
    return 0


def _cmd_phi0(args) -> int:
    _, sd, ts = _load(args.instance)
    q = ProfileQuery(
        epsilon=args.eps,
        t=args.t,
        x=args.point,
        sigma0=args.sigma,
        amplitude=args.amplitude,
    )
    print(json.dumps(leading_term_eval(sd, ts, q), allow_nan=False))
    return 0


def _cmd_residual(args) -> int:
    spec, _, ts = _load(args.instance)
    q = ProfileQuery(
        epsilon=1.0,
        t=args.t,
        x=(0.0,) * spec.K,
        sigma0=args.sigma,
        amplitude=1.0,  # the residual is linear in the amplitude
    )
    print(json.dumps(pde_residual(ts.M, q, args.zeta, args.h), allow_nan=False))
    return 0


# each command's handler and the modules whose pipeline names it calls
_HANDLERS = {
    "analyze": (_cmd_analyze, ("formats", "asymptotics")),
    "search": (_cmd_search, ("formats", "search")),
    "symbolic": (_cmd_symbolic, ("formats", "symbolic")),
    "phi0": (_cmd_phi0, ("formats", "asymptotics")),
    "residual": (_cmd_residual, ("formats", "asymptotics")),
}


def run_command(argv: list[str]) -> int:
    """Dispatch one invocation and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; usage errors were remapped to 1 by _Parser
        return int(exc.code or 0)
    handler, modules = _HANDLERS[args.command]
    _bind(modules)
    try:
        return handler(args)
    except (ValueError, OSError, GenerationFailed) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            # str(exc) quotes the path in full; bound it like any rejected value
            exc = f"[Errno {exc.errno}] {exc.strerror}: {exc.filename!r:.60}"
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run_command(sys.argv[1:])
