"""Declarative registry of the regression specifications.

A ModelSpec names what to regress on what: outcome, endogenous columns,
an instrument expression ("none", "arm", or "arm*reason"), controls, the
cluster column, and the fitting method. The nine built-in specifications
("spec1".."spec7", "specA1", "specA2") cover the edge-level and session-level
analyses and are frozen so runs are reproducible by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .errors import InvalidSpec, ParseError

INSTRUMENT_EXPRESSIONS = ("none", "arm", "arm*reason")

EDGE_COLUMNS = frozenset(
    {"position", "outcome", "relevance_score", "session_depth"}
)
SESSION_COLUMNS = frozenset({"n_top_spot", "n_bottom_spot", "invite_total"})


@dataclass(frozen=True)
class ModelSpec:
    name: str
    level: str  # "edge" | "session"
    outcome: str
    endogenous: tuple[str, ...]
    instruments: str
    controls: tuple[str, ...]
    cluster: str = "user_id"
    method: str = "2SLS"  # "OLS" | "2SLS" | "ILS"
    preferred: bool = False

    def __post_init__(self):
        object.__setattr__(self, "endogenous", tuple(self.endogenous))
        object.__setattr__(self, "controls", tuple(self.controls))
        if self.instruments == "arm×reason":
            object.__setattr__(self, "instruments", "arm*reason")
        self.validate()

    def validate(self) -> None:
        if self.level not in ("edge", "session"):
            raise InvalidSpec(f"level must be edge or session, got {self.level!r}")
        if self.method not in ("OLS", "2SLS", "ILS"):
            raise InvalidSpec(f"unknown method {self.method!r}")
        if self.instruments not in INSTRUMENT_EXPRESSIONS:
            raise InvalidSpec(f"unknown instrument expression {self.instruments!r}")
        if (self.method == "OLS") != (self.instruments == "none"):
            raise InvalidSpec("method is OLS exactly when the instrument expression is none")
        if self.method == "OLS" and self.endogenous:
            raise InvalidSpec("OLS specs carry their regressors as controls")
        if self.method != "OLS" and not self.endogenous:
            raise InvalidSpec("IV specs need at least one endogenous column")
        allowed = EDGE_COLUMNS if self.level == "edge" else SESSION_COLUMNS
        for col in (self.outcome, *self.endogenous, *self.controls):
            if col not in allowed:
                raise InvalidSpec(
                    f"column {col!r} is not a {self.level}-level column"
                )
        named = list(self.endogenous) + list(self.controls)
        if len(set(named)) != len(named):
            raise InvalidSpec("a column appears twice in the specification")
        if self.outcome in named:
            raise InvalidSpec("outcome cannot also be a regressor")


def builtin_specs() -> list[ModelSpec]:
    """The frozen specification registry."""
    return [
        ModelSpec("spec1", "edge", "outcome", ("position",), "arm", ()),
        ModelSpec(
            "spec2", "edge", "outcome", ("position",), "arm",
            ("relevance_score",), preferred=True,
        ),
        ModelSpec(
            "spec3", "edge", "outcome", (), "none",
            ("position", "relevance_score"), method="OLS",
        ),
        ModelSpec("spec4", "edge", "outcome", ("position",), "arm*reason", ()),
        ModelSpec(
            "spec5", "edge", "outcome", ("position",), "arm*reason",
            ("relevance_score",),
        ),
        ModelSpec(
            "spec6", "edge", "outcome", ("position", "session_depth"),
            "arm*reason", ("relevance_score",), preferred=True,
        ),
        ModelSpec(
            "spec7", "edge", "outcome", (), "none",
            ("position", "session_depth", "relevance_score"), method="OLS",
        ),
        ModelSpec(
            "specA1", "session", "invite_total",
            ("n_top_spot", "n_bottom_spot"), "arm*reason", (), preferred=True,
        ),
        ModelSpec(
            "specA2", "session", "invite_total", (), "none",
            ("n_top_spot", "n_bottom_spot"), method="OLS",
        ),
    ]


def get_spec(name: str) -> ModelSpec:
    for spec in builtin_specs():
        if spec.name == name:
            return spec
    raise InvalidSpec(f"no built-in spec named {name!r}")


def parse_spec(text: str) -> ModelSpec:
    """Validate a JSON specification; unknown fields are rejected."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed spec JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("spec JSON must be an object")
    unknown = set(obj) - {f.name for f in fields(ModelSpec)}
    if unknown:
        raise InvalidSpec(f"unknown spec fields: {sorted(unknown)}")
    missing = {"name", "level", "outcome", "instruments"} - set(obj)
    if missing:
        raise InvalidSpec(f"spec fields missing: {sorted(missing)}")
    try:
        return ModelSpec(
            name=str(obj["name"]),
            level=str(obj["level"]),
            outcome=str(obj["outcome"]),
            endogenous=tuple(obj.get("endogenous", ())),
            instruments=str(obj["instruments"]),
            controls=tuple(obj.get("controls", ())),
            cluster=str(obj.get("cluster", "user_id")),
            method=str(obj.get("method", "2SLS" if obj["instruments"] != "none" else "OLS")),
            preferred=bool(obj.get("preferred", False)),
        )
    except TypeError as exc:
        raise InvalidSpec(f"bad spec field types: {exc}") from exc
