import json
from dataclasses import asdict
from pathlib import Path

import pytest

from posiv.errors import InvalidSpec, ParseError
from posiv.specs import ModelSpec, builtin_specs, get_spec, parse_spec

GOLDEN = Path(__file__).parent / "data" / "builtin_specs.json"


def test_builtin_registry_contents():
    specs = {s.name: s for s in builtin_specs()}
    assert set(specs) == {
        "spec1", "spec2", "spec3", "spec4", "spec5", "spec6", "spec7",
        "specA1", "specA2",
    }
    assert specs["spec2"].preferred
    assert specs["spec2"].controls == ("relevance_score",)
    assert specs["spec6"].endogenous == ("position", "session_depth")
    assert specs["specA1"].controls == ()
    assert specs["specA1"].level == "session"
    assert specs["specA2"].method == "OLS"
    assert all(s.cluster == "user_id" for s in specs.values())
    assert all(
        (s.method == "OLS") == (s.instruments == "none") for s in specs.values()
    )


def test_builtin_specs_golden_fixture():
    rendered = json.dumps([asdict(s) for s in builtin_specs()], indent=2)
    assert rendered == GOLDEN.read_text(encoding="utf-8").rstrip("\n")


def test_round_trip_spec5():
    spec = get_spec("spec5")
    assert parse_spec(json.dumps(asdict(spec), indent=2)) == spec


def test_ols_with_instruments_invalid():
    with pytest.raises(InvalidSpec):
        ModelSpec("bad", "edge", "outcome", ("position",), "arm", (), method="OLS")


def test_session_spec_with_edge_column_invalid():
    with pytest.raises(InvalidSpec):
        ModelSpec(
            "bad", "session", "invite_total", ("n_top_spot",), "arm",
            ("relevance_score",),
        )


def test_parse_rejects_unknown_fields():
    obj = asdict(get_spec("spec1"))
    obj["bandwidth"] = 3
    with pytest.raises(InvalidSpec):
        parse_spec(json.dumps(obj))


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_spec("{not json")


def test_parse_accepts_unicode_interaction_alias():
    obj = asdict(get_spec("spec4"))
    obj["instruments"] = "arm×reason"
    spec = parse_spec(json.dumps(obj))
    assert spec.instruments == "arm*reason"


def test_unknown_builtin_name():
    with pytest.raises(InvalidSpec):
        get_spec("spec99")
