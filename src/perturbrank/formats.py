"""Instance and report file formats.

Instances and reports are JSON with every exact quantity carried as a
rational string ("p" or "p/q", q > 0) — never floats, since exactness is
the product.  Files carry a format_version so counterexample artifacts
remain interpretable if the layout ever changes.  Serialization is
deterministic: sorted keys, fixed indentation, trailing newline.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .exact_linalg import INSTANCE_DIGIT_LIMIT, RationalMatrix, nullspace
from .model import SpectralData, SystemSpec

if TYPE_CHECKING:  # a report comes from asymptotics, which loads only when needed
    from .asymptotics import StructureReport, TransferStructure

__all__ = [
    "FORMAT_VERSION",
    "build_report",
    "dumps",
    "instance_to_dict",
    "load_instance_file",
]

FORMAT_VERSION = 1

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

_INSTANCE_KEYS = {"format_version", "n", "K", "A", "D", "label"}


def _parse_rational(value: object) -> tuple[int, int]:
    """Parse "p" or "p/q" (q > 0) or a plain integer into lowest terms ``(p, q)``.

    An error names no location; the caller prefixes it.  Errors echo at
    most 60 characters of a rejected value (``!r:.60``).
    """
    if isinstance(value, bool):
        raise ValueError("expected a rational string, got a boolean")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise ValueError('floats are not accepted; write an exact rational string like "3/10"')
    match = _RATIONAL_RE.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ValueError(f"{value!r:.60} is not of the form 'p' or 'p/q'")
    p, q = match.groups()
    # more digits than int() converts raise ValueError here
    p, q = int(p), int(q or 1)
    if q == 0:
        raise ValueError(f"zero denominator in {value!r:.60}")
    g = math.gcd(p, q)
    return p // g, q // g


def _parse_int(data: dict, key: str) -> int:
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key}: expected an integer, got {value!r:.60}")
    return value


def _parse_rows(data: dict, name: str, noun: str, count: int, length: int) -> list:
    """Field ``name``: ``count`` rows (``noun``) of ``length`` entry pairs."""
    raw = data[name]
    if not isinstance(raw, list):
        raise ValueError(f"{name}: expected an array of {noun}")
    if len(raw) != count:
        raise ValueError(f"{name}: expected {count!r:.60} {noun}, found {len(raw)}")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise ValueError(f"{name}[{i}]: expected an array")
        if len(row) != length:
            raise ValueError(f"{name}[{i}]: expected {length!r:.60} entries, found {len(row)}")
        entries: list = []
        try:
            entries.extend(map(_parse_rational, row))
        except ValueError as exc:
            # extend keeps the entries before the rejected one, whose
            # location is written only now
            raise ValueError(f"{name}[{i}][{len(entries)}]: {exc}") from None
        rows.append(entries)
    return rows


def _matrix(rows: list) -> RationalMatrix:
    """Entry pairs as integer rows over the lcm of their denominators, scaled once."""
    den = math.lcm(*(q for row in rows for _, q in row))
    num = [[p * (den // q) for p, q in row] for row in rows]
    return RationalMatrix(num).scale(Fraction(1, den))


def _instance_from_dict(data: object) -> SystemSpec:
    if not isinstance(data, dict):
        raise ValueError("instance file must contain a JSON object")
    unknown = set(data) - _INSTANCE_KEYS
    if unknown:
        raise ValueError(f"unknown instance fields: {sorted(unknown)!r:.60}")
    version = _parse_int(data, "format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"format_version: expected {FORMAT_VERSION}, got {version!r:.60}")
    n = _parse_int(data, "n")
    k = _parse_int(data, "K")
    if "A" not in data or "D" not in data:
        raise ValueError("instance requires both 'A' and 'D'")
    shapes = (("A", "rows", n), ("D", "diagonals", k))
    fields = {name: _parse_rows(data, name, noun, count, n) for name, noun, count in shapes}
    budget = INSTANCE_DIGIT_LIMIT
    for name, rows in fields.items():
        for i, row in enumerate(rows):
            for j, (p, q) in enumerate(row):
                budget -= len(str(abs(p))) + len(str(q))
                if budget < 0:
                    raise ValueError(
                        f"{name}[{i}][{j}]: the entries of A and D have more than "
                        f"{INSTANCE_DIGIT_LIMIT} digits in all"
                    )
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"label: expected a string, got {label!r:.60}")
    SystemSpec.check_sizes(n, k)
    return SystemSpec(n=n, K=k, D=_matrix(fields["D"]), A=_matrix(fields["A"]), label=label)


def load_instance_file(path: str) -> SystemSpec:
    """Read an instance file into the system it describes.

    An unknown field, a malformed value, inconsistent dimensions or
    entries of A and D with more than ``INSTANCE_DIGIT_LIMIT`` digits in
    all raise ``ValueError``; a message echoes at most 60 characters of
    the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path!r:.60}: not UTF-8 text ({exc})") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int() refuses, or deep nesting
        raise ValueError(f"{path!r:.60}: invalid JSON ({exc})") from exc
    return _instance_from_dict(data)


def _matrix_strs(m: RationalMatrix, where: str) -> list[list[str]]:
    """The entries of m as "p" or "p/q" strings.  An entry with more
    digits than ``str(int)`` converts raises ValueError naming it as
    ``where`` formatted with its row i and column j."""
    try:
        return m.to_strings()
    except ValueError as exc:
        for i, j in itertools.product(range(m.rows), range(m.cols)):
            try:
                str(m[i, j])
            except ValueError:
                raise ValueError(f"{where.format(i=i, j=j)}: {exc}") from None
        raise


def instance_to_dict(spec: SystemSpec) -> dict:
    """The instance-file object of ``spec``; ``load_instance_file`` reads
    its ``dumps`` text back to an equal system."""
    return {
        "format_version": FORMAT_VERSION,
        "n": spec.n,
        "K": spec.K,
        "A": _matrix_strs(spec.A, "A[{i}][{j}]"),
        "D": _matrix_strs(spec.D, "D[{i}][{j}]"),
        "label": spec.label,
    }


def build_report(
    spec: SystemSpec,
    sd: SpectralData,
    ts: TransferStructure,
    report: StructureReport,
) -> dict:
    """Assemble the full analysis report for one instance: the instance as
    ``instance_to_dict`` writes it, the certificate ``sd`` with G its group
    inverse, ``ts`` and the exact verdict ``report``.

    The kernel rows of M come from their own elimination here, and their
    count must be K minus the rank of ``report``, read off the inertia:
    ``ArithmeticError`` when the two routes to the rank disagree.  An
    exact entry with more digits than ``str(int)`` converts raises
    ValueError naming its report field, e.g. ``transfer.M[0][1]``."""
    from .asymptotics import DEGENERATE  # loaded: it made ``report``

    kernel = nullspace(ts.M)
    if len(kernel) != ts.M.rows - report.rank_exact:
        raise ArithmeticError(
            f"rank {report.rank_exact} of M and its kernel dimension {len(kernel)} "
            f"do not add up to K = {ts.M.rows}"
        )
    try:
        instance = instance_to_dict(spec)
    except ValueError as exc:
        raise ValueError(f"instance.{exc}") from None
    return {
        "format_version": FORMAT_VERSION,
        "instance": instance,
        "spectral": {
            "h1": _matrix_strs(sd.h1, "spectral.h1[{j}]")[0],
            "h1_star": _matrix_strs(sd.h1_star, "spectral.h1_star[{j}]")[0],
            "stable": True,  # validation raises on an unstable A
        },
        "transfer": {
            "v": _matrix_strs(ts.v.transpose(), "transfer.v[{j}]")[0],
            "G": _matrix_strs(sd.G, "transfer.G[{i}][{j}]"),
            "M": _matrix_strs(ts.M, "transfer.M[{i}][{j}]"),
        },
        "structure": {
            "rank_exact": report.rank_exact,
            "predicted_rank": report.predicted_rank,
            "rank_matches_prediction": report.rank_exact == report.predicted_rank,
            "eigenvalues": list(report.eigenvalues),
            "kernel_directions": [
                _matrix_strs(row, f"structure.kernel_directions[{i}][{{j}}]")[0]
                for i, row in enumerate(kernel)
            ],
            "degenerate": report.outcome == DEGENERATE,
        },
    }


def dumps(obj: object) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    The text is exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``,
    written in one recursive pass: with an indent, ``json`` runs its
    pure-Python generator encoder instead of the C one.  Keys must be
    strings; a value of any other type than str, int, float, bool, None,
    list, tuple and dict raises TypeError, as in ``json``.

    Each dict object is encoded once per call, however often ``obj``
    holds it (a symbolic report shares its denominator trees and the
    payloads of M[i][j] and M[j][i]); see ``_encode``.
    """
    return _encode(obj, "\n", {}) + "\n"


def _encode(o: object, newline: str, memo: dict) -> str:
    """One JSON value; ``newline`` is the line break and indent it starts at.

    Dicts, lists and tuples come first, and their children of exact type
    str or int are written inside the loop, without a call; every other
    child (bool, None, float, subclasses) takes the branches below.

    ``memo`` maps the id of each non-empty dict written so far to its
    ``(newline, text)``; the root holds every such dict for the whole
    call, so no id is reused.  A dict met again is that text, re-indented
    with one ``text.replace(base, newline)`` where its first ``newline``
    was ``base``.  The replace is exact: ``encode_basestring_ascii``
    escapes every line break inside keys and strings, so each ``"\\n"``
    of the text starts one of its indentation lines, and each of those
    starts with ``base``.  Lists and tuples, which no report shares, are
    not remembered."""
    if isinstance(o, dict):
        if not o:
            return "{}"
        seen = memo.get(id(o))
        if seen is not None:
            base, text = seen
            return text if base == newline else text.replace(base, newline)
        inner = newline + "  "
        items = []
        for k in sorted(o):
            x = o[k]
            if type(x) is str:
                text = encode_basestring_ascii(x)
            elif type(x) is int:
                text = int.__repr__(x)
            else:
                text = _encode(x, inner, memo)
            # encode_basestring_ascii raises TypeError on a key that is no str
            items.append(encode_basestring_ascii(k) + ": " + text)
        text = "{" + inner + ("," + inner).join(items) + newline + "}"
        memo[id(o)] = (newline, text)
        return text
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        items = []
        for x in o:
            if type(x) is str:
                items.append(encode_basestring_ascii(x))
            elif type(x) is int:
                items.append(int.__repr__(x))
            else:
                items.append(_encode(x, inner, memo))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
