"""The canonical JSON writer against the standard library's encoder."""

import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbrank.asymptotics import analyze_structure, build_M
from perturbrank.formats import build_report, dumps, load_instance_file
from perturbrank.model import validate_system
from perturbrank.search import CampaignConfig, run_campaign
from perturbrank.symbolic import symbolic_report

INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


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
        [[], {}, (), [[]], {"a": {}}, [(), [[], {}]], "", -0.0, 10**100, -(10**100), True, None],
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
