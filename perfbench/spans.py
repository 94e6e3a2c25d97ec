"""Spans for the traced run, recorded from outside the package.

``install`` replaces the public functions each consumer module of
``perturbrank`` imports (``perturbrank.search.generate_instance``,
``perturbrank.model.charpoly_exact``, ...) with timing wrappers and
returns a function that puts the originals back.  Calls the package makes
through those module globals, including recursive ``poly_gcd`` calls, go
through the wrappers; nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent, op, nested, attrs]``: the
parent is the index of the enclosing span (-1 at top level), ``op`` the id
of the CLI command it belongs to, and ``nested`` marks a span inside
another span of the same name, so inclusive totals count each outermost
call once.  Self time is a span's duration minus the durations of its
direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from pathlib import Path
from time import perf_counter_ns

NAME, START, END, PARENT, OP, NESTED, ATTRS = range(7)

#: (consumer module, attribute, span name).  Attributes a module no
#: longer has are skipped, so later refactors lose a counter rather than
#: break the run.
PATCHES = (
    ("search", "generate_instance", "model.generate"),
    ("search", "validate_system", "model.validate"),
    ("cli", "validate_system", "model.validate"),
    ("model", "null_pair_normalized", "model.null_pair"),
    ("model", "charpoly_exact", "exact_linalg.charpoly"),
    ("model", "hurwitz_stable", "exact_linalg.hurwitz"),
    ("model", "nullspace", "exact_linalg.nullspace"),
    ("model", "rank_exact", "exact_linalg.rank"),
    ("model", "det_exact", "exact_linalg.det"),
    ("model", "inverse", "exact_linalg.inverse"),
    ("asymptotics", "nullspace", "exact_linalg.nullspace"),
    ("asymptotics", "rank_exact", "exact_linalg.rank"),
    ("asymptotics", "group_inverse", "asymptotics.group_inverse"),
    ("search", "build_M", "asymptotics.build_M"),
    ("cli", "build_M", "asymptotics.build_M"),
    ("search", "analyze_structure", "asymptotics.analyze"),
    ("cli", "analyze_structure", "asymptotics.analyze"),
    ("asymptotics", "jacobi_eigenvalues", "asymptotics.jacobi"),
    ("asymptotics", "phi0_eval", "asymptotics.phi0"),
    ("cli", "leading_term_eval", "asymptotics.leading_term"),
    ("cli", "pde_residual", "asymptotics.residual"),
    ("search", "classify_instance", "search.classify"),
    ("cli", "run_campaign", "search.run_campaign"),
    ("cli", "report_to_dict", "search.report_to_dict"),
    ("search", "instance_to_dict", "formats.instance_to_dict"),
    ("formats", "instance_to_dict", "formats.instance_to_dict"),
    ("search", "build_report", "formats.build_report"),
    ("cli", "build_report", "formats.build_report"),
    ("search", "dumps", "formats.dumps"),
    ("cli", "dumps", "formats.dumps"),
    ("cli", "load_instance_file", "formats.load"),
    ("cli", "symbolic_report", "symbolic.report"),
    ("multipoly", "poly_gcd", "multipoly.poly_gcd"),
)

LINALG_FUNCTIONS = ("charpoly", "hurwitz", "nullspace", "rank", "det", "inverse")
RESIDUAL_KS = (2, 4, 8)
SYMBOLIC_KS = (2, 3, 4, 5, 6)


def _attrs(module: str, attr: str, args: tuple, result) -> dict | None:
    """Facts a few spans keep for the ratios and per-K timings."""
    if module == "model" and attr == "rank_exact":  # the generator's span screen
        return {"accepted": result == args[0].rows}
    if module == "model" and attr == "det_exact":
        return {"accepted": result != 0}
    if attr == "pde_residual":
        return {"K": args[0].rows}
    if attr == "symbolic_report":
        return {"K": args[0]}
    if attr == "dumps":
        return {"bytes": len(result.encode("utf-8"))}
    return None


class Tracer:
    """Spans kept in memory for the whole run, written out when it ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.op = 0

    def _wrap(self, module: str, attr: str, name: str, fn):
        spans, stack, active = self.spans, self.stack, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = active.get(name, 0)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, depth > 0, None]
            stack.append(len(spans))
            spans.append(rec)
            active[name] = depth + 1
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                active[name] = depth
                stack.pop()
            rec[ATTRS] = _attrs(module, attr, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every patch target; returns the function that undoes it."""
        undo = []
        for module, attr, name in PATCHES:
            mod = importlib.import_module(f"perturbrank.{module}")
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            setattr(mod, attr, self._wrap(module, attr, name, fn))
            undo.append((mod, attr, fn))

        def uninstall():
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)

        return uninstall

    def command(self, label: str, call):
        """Run one CLI command as a top-level ``cli.command`` span."""
        self.op += 1
        rec = ["cli.command", 0, 0, -1, self.op, False, {"command": label}]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter_ns()
        try:
            return call()
        finally:
            rec[END] = perf_counter_ns()
            self.stack.pop()

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "nested", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def layer_metrics(tracer: Tracer, iterations: int, instances: int, wall_s: float,
                  scale: float) -> dict:
    """Per-layer metrics from the spans of ``iterations`` traced iterations
    that classified or loaded ``instances`` instances in ``wall_s`` raw
    seconds; span times are multiplied by ``scale``, the machine-speed
    factor of those iterations (see ``speed.py``)."""
    spans = tracer.spans
    child = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for i, rec in enumerate(spans):
        name, dur = rec[NAME], rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + dur - child[i]
        if not rec[NESTED]:
            total[name] = total.get(name, 0) + dur

    def under(i: int, name: str) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    def per_inst(ns_or_count: float) -> float:
        return ns_or_count / instances if instances else 0.0

    def per_iter(value: float) -> float:
        return value / iterations

    def ms(ns: float) -> float:
        return ns * scale / 1e6

    screen = [r for r in spans if r[NAME] == "exact_linalg.rank" and r[ATTRS]]
    dets = [r for r in spans if r[NAME] == "exact_linalg.det" and r[ATTRS]]
    residuals = [i for i, r in enumerate(spans) if r[NAME] == "asymptotics.residual"]
    in_residual = {"asymptotics.phi0": 0, "asymptotics.jacobi": 0}
    for i, rec in enumerate(spans):
        if rec[NAME] in in_residual and under(i, "asymptotics.residual"):
            in_residual[rec[NAME]] += 1
    linalg_ns = sum(total.get(f"exact_linalg.{fn}", 0) for fn in LINALG_FUNCTIONS)
    commands = calls.get("cli.command", 0)

    out: dict[str, tuple[float, str]] = {
        "model.generate.self_ms_per_instance": (ms(per_inst(self_ns.get("model.generate", 0))), "ms/instance"),
        "model.validate.self_ms_per_instance": (ms(per_inst(self_ns.get("model.validate", 0))), "ms/instance"),
        "model.charpoly_calls_per_instance": (per_inst(calls.get("exact_linalg.charpoly", 0)), "calls/instance"),
        "model.null_pair_calls_per_instance": (per_inst(calls.get("model.null_pair", 0)), "calls/instance"),
        "model.span_screen_accept_ratio": (
            sum(1 for r in screen if r[ATTRS]["accepted"]) / len(screen) if screen else 0.0, "ratio"),
        "model.invertible_accept_ratio": (
            sum(1 for r in dets if r[ATTRS]["accepted"]) / len(dets) if dets else 0.0, "ratio"),
    }
    for fn in LINALG_FUNCTIONS:
        out[f"exact_linalg.{fn}.calls"] = (per_iter(calls.get(f"exact_linalg.{fn}", 0)), "calls/iteration")
        out[f"exact_linalg.{fn}.ms_total"] = (ms(per_iter(total.get(f"exact_linalg.{fn}", 0))), "ms/iteration")
    out["exact_linalg.share_of_wall"] = (linalg_ns / 1e9 / wall_s if wall_s else 0.0, "ratio")
    out.update({
        "asymptotics.build_M.self_ms_per_instance": (ms(per_inst(self_ns.get("asymptotics.build_M", 0))), "ms/instance"),
        "asymptotics.group_inverse.ms_per_instance": (ms(per_inst(total.get("asymptotics.group_inverse", 0))), "ms/instance"),
        "asymptotics.analyze.self_ms_per_instance": (ms(per_inst(self_ns.get("asymptotics.analyze", 0))), "ms/instance"),
        "asymptotics.jacobi.calls": (per_iter(calls.get("asymptotics.jacobi", 0)), "calls/iteration"),
        "asymptotics.phi0_calls_per_residual": (
            in_residual["asymptotics.phi0"] / len(residuals) if residuals else 0.0, "calls/residual"),
        "asymptotics.jacobi_calls_per_residual": (
            in_residual["asymptotics.jacobi"] / len(residuals) if residuals else 0.0, "calls/residual"),
    })
    for k in RESIDUAL_KS:
        durs = [spans[i][END] - spans[i][START] for i in residuals if spans[i][ATTRS]["K"] == k]
        out[f"asymptotics.residual_ms.K{k}"] = (ms(statistics.median(durs)) if durs else 0.0, "ms")
    out["search.classify.self_ms_per_instance"] = (ms(per_inst(self_ns.get("search.classify", 0))), "ms/instance")
    dumps_bytes = sum(r[ATTRS]["bytes"] for r in spans if r[NAME] == "formats.dumps")
    out.update({
        "formats.instance_to_dict.ms_total": (ms(per_iter(total.get("formats.instance_to_dict", 0))), "ms/iteration"),
        "formats.build_report.ms_total": (ms(per_iter(total.get("formats.build_report", 0))), "ms/iteration"),
        "formats.dumps.ms_total": (ms(per_iter(total.get("formats.dumps", 0))), "ms/iteration"),
        "formats.dumps.bytes": (per_iter(dumps_bytes), "bytes/iteration"),
        "formats.load.ms_total": (ms(per_iter(total.get("formats.load", 0))), "ms/iteration"),
    })
    symbolic = [r for r in spans if r[NAME] == "symbolic.report"]
    for k in SYMBOLIC_KS:
        durs = [r[END] - r[START] for r in symbolic if r[ATTRS]["K"] == k]
        out[f"symbolic.report_ms.K{k}"] = (ms(statistics.median(durs)) if durs else 0.0, "ms")
    out["multipoly.poly_gcd.calls"] = (per_iter(calls.get("multipoly.poly_gcd", 0)), "calls/iteration")
    out["multipoly.poly_gcd.ms_total"] = (ms(per_iter(total.get("multipoly.poly_gcd", 0))), "ms/iteration")
    out["cli.self_ms_per_query"] = (
        ms(self_ns.get("cli.command", 0) / commands) if commands else 0.0, "ms/query")
    return out
