"""The canonical JSON writer against the standard library's encoder."""

import enum
import json
import math
import os
import random
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbrank.asymptotics import analyze_structure, build_M
from perturbrank import formats
from perturbrank.exact_linalg import INSTANCE_DIGIT_LIMIT, RationalMatrix
from perturbrank.formats import build_report, dumps, load_instance_file
from perturbrank.model import SystemSpec, validate_system
from perturbrank.search import CampaignConfig, run_campaign
from perturbrank.symbolic import symbolic_report

INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


class _Str(str):
    pass


class _Int(int):
    pass


class _Enum(enum.IntEnum):
    TWO = 2


class _Float(float):
    pass


class _List(list):
    pass


def _reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),  # surrogates and controls too
        st.sampled_from('"\\/\x00\x08\x0c\n\r\t\x1f\x7f\x80é ￿\U0001f600'),
    ),
    max_size=12,
)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    _FLOATS,
    _TEXT,
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5),
    ),
    max_leaves=30,
)


class TestDumps:
    @settings(max_examples=100, deadline=None)
    @given(_TREES)
    def test_matches_json_on_random_trees(self, obj):
        assert dumps(obj) == _reference(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [], {}, (), [[]], {"a": {}}, [(), [[], {}]], "", -0.0, 10**100, -(10**100), True, None,
            # subclasses and bools miss the exact-type fast path of the
            # containers and take the general branches
            OrderedDict([("b", 1), ("a", [2, "x"])]),
            {"s": _Str("x\u00e9"), "t": [_Str("")]},
            {"i": _Int(7), "e": [_Enum.TWO, -_Int(3)]},
            {"f": _Float(0.5), "g": [_Float("nan"), _Float("-inf")]},
            _List([1, "a", _List([]), {"k": _List([None])}]),
            {"t": True, "f": False, "l": [True, False, None, 0, 1]},
            [OrderedDict([("z", _Str("q")), ("a", (_Int(1), _List([_Float(2.5)])))])],
            {_Str("k"): _Str("v"), "j": {_Str(""): _Enum.TWO}},
        ],
    )
    def test_empty_and_edge_values(self, obj):
        assert dumps(obj) == _reference(obj)

    def test_campaign_report_and_artifacts(self, tmp_path):
        artifact_dir = tmp_path / "artifacts"
        cfg = CampaignConfig(n_range=(2, 3), K_range=(2, 3), samples_per_cell=6, seed=7)
        report = run_campaign(cfg, artifact_dir=str(artifact_dir))
        assert dumps(report) == _reference(report)
        names = sorted(os.listdir(artifact_dir))
        assert names
        for name in names:
            text = (artifact_dir / name).read_text(encoding="utf-8")
            assert text == _reference(json.loads(text))

    @pytest.mark.parametrize(
        "name", ["w1.json", "violation-n3-K1.json", "violation-n3-K2.json", "violation-n4-K3.json"]
    )
    def test_analyze_reports(self, name):
        spec = load_instance_file(os.path.join(INSTANCES, name))
        sd = validate_system(spec)
        ts = build_M(spec, sd)
        report = build_report(spec, sd, ts, analyze_structure(ts))
        assert dumps(report) == _reference(report)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_symbolic_reports(self, k):
        report = symbolic_report(k)
        assert dumps(report) == _reference(report)

    @pytest.mark.parametrize(
        "obj", [Fraction(1, 2), {1, 2}, {1: "a"}, {"a": [Fraction(1)]}, {"a": {"b": 1, 2: 3}}]
    )
    def test_unsupported_values_and_keys_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            dumps(obj)


_SHARED_SCALARS = [
    None, True, False, 0, -7, 10**30, 0.1, -2.5e-300, 1e300, -0.0,
    "", "x", "a\nb", "\n  ", "\n\n", "é\u2028", "\U0001f600\n\t", '"{\n}"',
]


def _shared_tree(rng: random.Random):
    """A nested value in which one dict object sits at several depths,
    twice at one depth, and inside another dict that is itself shared."""

    def scalar():
        return rng.choice(_SHARED_SCALARS)

    def key():
        return rng.choice(["a", "b", "\n", "k\nk", "é", " \n  ", "z"]) + str(rng.randrange(4))

    inner = {key(): scalar() for _ in range(rng.randint(1, 4))}
    inner[key()] = [scalar(), {key(): scalar()}]
    shared = {key(): scalar() for _ in range(rng.randint(1, 3))}
    shared["inner"] = inner
    shared["more"] = [inner, {"deep": inner}]

    def tree(depth: int):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice([shared, inner, scalar(), [inner], {}])
        if rng.random() < 0.5:
            return [tree(depth - 1) for _ in range(rng.randint(1, 4))]
        return {key(): tree(depth - 1) for _ in range(rng.randint(1, 4))}

    row = [shared, shared]
    return {"twice": row, "same": [shared, [shared]], "rest": tree(5), "row": row}


def _distinct_dicts(obj, seen: dict) -> dict:
    """Every non-empty dict object under obj, by id."""
    if isinstance(obj, dict):
        if obj:
            seen[id(obj)] = obj
        for x in obj.values():
            _distinct_dicts(x, seen)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            _distinct_dicts(x, seen)
    return seen


class TestSharedDicts:
    """One dict object held at several places is encoded once per call,
    and its text re-indented where it sits deeper or shallower."""

    @pytest.mark.parametrize("seed", range(40))
    def test_shared_dicts_match_json(self, seed):
        obj = _shared_tree(random.Random(seed))
        assert dumps(obj) == _reference(obj)

    def test_symbolic_report_encodes_each_dict_once(self, monkeypatch):
        # the dict branch sorts the keys of each dict it encodes
        report = symbolic_report(6)
        sorted_ids = []

        def spy(iterable, *args, **kwargs):
            if isinstance(iterable, dict):
                sorted_ids.append(id(iterable))
            return sorted(iterable, *args, **kwargs)

        monkeypatch.setattr(formats, "sorted", spy, raising=False)
        text = dumps(report)
        monkeypatch.undo()
        assert text == _reference(report)
        distinct = _distinct_dicts(report, {})
        assert sorted(sorted_ids) == sorted(distinct)
        # the report does share: fewer dicts are encoded than it holds
        occurrences = text.count("{\n")
        assert len(sorted_ids) < occurrences

    def test_memo_lives_for_one_call(self):
        shared = {"k": "v", "n": [1, 2]}
        obj = {"a": shared, "b": [shared, {"c": shared}]}
        first = dumps(obj)
        shared["k"] = "w\nline"
        shared["new"] = {"x": None}
        second = dumps(obj)
        assert first == _reference({"a": {"k": "v", "n": [1, 2]}, "b": [
            {"k": "v", "n": [1, 2]}, {"c": {"k": "v", "n": [1, 2]}}]})
        assert second == _reference(obj) != first
        assert second.count('"w\\nline"') == 3


class TestBuildReport:
    @pytest.mark.parametrize(
        "digits, big_rates, big_speed, field",
        [
            (4400, True, False, "instance.A[0][0]"),
            (2200, True, False, "transfer.G[0][0]"),
            (1500, True, True, "transfer.M[0][0]"),
        ],
    )
    def test_oversized_entry_names_its_field(self, digits, big_rates, big_speed, field):
        # a library-built system is not held to the instance-file digit
        # limit; an exact entry str(int) refuses to convert is named
        big = 10 ** (digits - 1) + 7
        a = [[-big, 1], [big, -1]] if big_rates else [[-1, 1], [1, -1]]
        d = [[big if big_speed else 2, 0], [0, 1]]
        spec = SystemSpec(n=2, K=2, A=RationalMatrix(a), D=RationalMatrix(d))
        sd = validate_system(spec)
        ts = build_M(spec, sd)
        report = analyze_structure(ts)
        with pytest.raises(ValueError) as refused:
            str(10**4300)
        with pytest.raises(ValueError) as exc:
            build_report(spec, sd, ts, report)
        assert str(exc.value) == f"{field}: {refused.value}"


def _load(tmp_path, d) -> SystemSpec:
    data = {"format_version": 1, "n": 2, "K": 2, "A": [["-1", "1"], ["1", "-1"]], "D": d}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return load_instance_file(str(path))


class TestParseRational:
    """Entries are read as "p" or "p/q", reduced; A costs 8 digits."""

    def test_digit_budget_counts_reduced_values(self, tmp_path):
        # 10/20 costs the two digits of 1/2: with it the entries spend the
        # limit exactly, with the irreducible 10/21 two digits more
        rest = "1" * (INSTANCE_DIGIT_LIMIT - 15)
        spec = _load(tmp_path, [["10/20", "0"], ["0", rest]])
        assert spec.D[0, 0] == Fraction(1, 2)
        with pytest.raises(ValueError, match=r"^D\[1\]\[1\]: the entries of A and D"):
            _load(tmp_path, [["10/21", "0"], ["0", rest]])

    def test_signed_zero_and_leading_zeros(self, tmp_path):
        spec = _load(tmp_path, [["-0/7", "007"], ["-007/014", "0"]])
        assert spec.D == _load(tmp_path, [["0", "7"], ["-1/2", "0"]]).D

    def test_zero_denominator(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            _load(tmp_path, [["1/0", "0"], ["0", "1"]])
        assert str(exc.value) == "D[0][0]: zero denominator in '1/0'"

    @pytest.mark.parametrize("field, i, j", [("A", 2, 1), ("D", 1, 0)])
    @pytest.mark.parametrize(
        "entry, text",
        [
            (True, "expected a rational string, got a boolean"),
            (0.5, 'floats are not accepted; write an exact rational string like "3/10"'),
            ("1/0", "zero denominator in '1/0'"),
            ("x", "'x' is not of the form 'p' or 'p/q'"),
            ("1" * 4400 + "/3",
             "Exceeds the limit (4300 digits) for integer string conversion: value has "
             "4400 digits; use sys.set_int_max_str_digits() to increase the limit"),
        ],
        ids=["boolean", "float", "zero-denominator", "letter", "over-int-limit"],
    )
    def test_rejected_entry_names_its_location(self, tmp_path, field, i, j, entry, text):
        # a later row and column of a 3 x 3 A and a 2 x 3 D: the entries
        # before the rejected one parse, and the message names its place
        data = {
            "format_version": 1, "n": 3, "K": 2,
            "A": [["-2", "1", "1"], ["1", "-2", "1"], ["1", "1", "-2"]],
            "D": [["1", "2", "3"], ["0", "2", "1"]],
        }
        data[field][i][j] = entry
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_instance_file(str(path))
        assert str(exc.value) == f"{field}[{i}][{j}]: {text}"

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_numerator_over_the_int_limit(self, tmp_path, sign):
        digits = "1" * 4301
        with pytest.raises(ValueError) as refused:
            int(digits)
        with pytest.raises(ValueError) as exc:
            _load(tmp_path, [[sign + digits + "/3", "0"], ["0", "1"]])
        assert str(exc.value) == f"D[0][0]: {refused.value}"
