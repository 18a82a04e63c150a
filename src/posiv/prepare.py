"""Turn raw Datasets into estimation-ready designs.

Deterministic one-row-per-request sampling (so responses are independent
across rows), per-item slicing, instrument expansion, and session-level
aggregation. Everything is a pure function of its inputs; the sampling hash
keys on (seed, request_id, within-request ordinal) so results do not depend
on iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .datamodel import SESSION_SCHEMA, Dataset
from .errors import (
    ConstantColumn,
    MissingColumn,
    Underdetermined,
    Underidentified,
    UnknownItem,
)
from .specs import ModelSpec


@dataclass
class DesignMatrix:
    """Columns for one regression: outcome, endogenous, instruments, controls.

    x always ends with the constant column. Instruments are the excluded ones
    only (controls are implicitly included in the first stage).
    """

    y: np.ndarray
    w: np.ndarray  # (n, p_w) endogenous
    z: np.ndarray  # (n, p_z) excluded instruments
    x: np.ndarray  # (n, p_x) controls, constant last
    w_names: tuple[str, ...]
    z_names: tuple[str, ...]
    x_names: tuple[str, ...]
    clusters: np.ndarray
    row_index: np.ndarray
    outcome_name: str = "outcome"
    n_dropped: int = 0
    label: str | None = None

    def __post_init__(self):
        n = len(self.y)
        for name, arr in (("w", self.w), ("z", self.z), ("x", self.x)):
            if arr.ndim != 2 or arr.shape[0] != n:
                raise ValueError(f"{name} must be (n, k) with n == len(y)")
        if len(self.clusters) != n:
            raise ValueError("clusters length mismatch")
        k_total = self.w.shape[1] + self.z.shape[1] + self.x.shape[1]
        if n < k_total:
            raise Underdetermined(f"{n} rows for {k_total} columns")
        # order condition; a design with no instruments at all is OLS-only
        if 0 < self.z.shape[1] < self.w.shape[1]:
            raise Underidentified(
                f"{self.z.shape[1]} instruments for {self.w.shape[1]} endogenous columns"
            )

    @property
    def n_obs(self) -> int:
        return len(self.y)


def _winner_per_request(request_ids: np.ndarray, seed: int) -> np.ndarray:
    """Indices of the kept row per request under the deterministic hash rule.

    Each row scores raw64(key(seed, request_id), ordinal) where the ordinal
    counts that request's rows in dataset order; the max score wins. Returned
    indices are in ascending dataset order.
    """
    order = np.argsort(request_ids, kind="stable")
    sorted_req = request_ids[order]
    n = len(sorted_req)
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_req[1:] != sorted_req[:-1]
    group_start = np.maximum.accumulate(np.where(new_group, np.arange(n), 0))
    ordinal = (np.arange(n) - group_start).astype(np.uint64)

    scores = rng.raw64(rng.stream_key(seed, rng.TAG_SAMPLE, sorted_req), ordinal)
    # sort by (request asc, score desc, ordinal asc); first row per request wins
    ranking = np.lexsort((ordinal, ~scores, sorted_req))
    req_ranked = sorted_req[ranking]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = req_ranked[1:] != req_ranked[:-1]
    winners = order[ranking[first]]
    return np.sort(winners)


def sample_one_per_request(ds: Dataset, seed: int) -> Dataset:
    """Keep exactly one uniformly chosen row per request."""
    if ds.n_rows == 0:
        raise ValueError("empty dataset")
    winners = _winner_per_request(ds.column("request_id"), seed)
    return ds.subset(
        winners, provenance=f"{ds.provenance} | sample_one_per_request seed={seed}"
    )


def slice_by_item(ds: Dataset, item_id: int, seed: int = 0) -> Dataset:
    """Rows of one item, at most one per request (hash rule with this seed)."""
    items = ds.column("item_id")
    mask = items == np.uint64(item_id)
    if not mask.any():
        raise UnknownItem(f"item {item_id} not present")
    sliced = ds.subset(mask, provenance=f"{ds.provenance} | item={item_id}")
    req = sliced.column("request_id")
    if len(np.unique(req)) < len(req):
        winners = _winner_per_request(req, seed)
        sliced = sliced.subset(winners, provenance=sliced.provenance)
    return sliced


def top_items(ds: Dataset, n: int) -> list[int]:
    """Item ids by descending row count; ties broken by ascending id."""
    if n < 1:
        raise ValueError("n must be >= 1")
    items, counts = np.unique(ds.column("item_id"), return_counts=True)
    order = np.lexsort((items, -counts))
    return [int(i) for i in items[order][:n]]


def _reason_column(ds: Dataset) -> str:
    if ds.has_column("reason"):
        return "reason"
    if ds.has_column("reason_mode"):
        return "reason_mode"
    raise MissingColumn("instrument expression needs a reason column")


def build_design(ds: Dataset, spec: ModelSpec) -> DesignMatrix:
    """Materialize a ModelSpec against a Dataset.

    Rows missing any named value are dropped (and counted). The "arm*reason"
    expression expands to indicator products of each non-baseline arm level
    with every observed reason level; the baseline arm level (lowest id) is
    dropped, which with a binary arm leaves treatment-only indicators.
    """
    needed = [spec.outcome, *spec.endogenous, *spec.controls]
    str_cols = []
    if spec.instruments != "none":
        str_cols.append("arm")
        if spec.instruments == "arm*reason":
            str_cols.append(_reason_column(ds))

    n = ds.n_rows
    valid = np.ones(n, dtype=bool)
    numeric: dict[str, np.ndarray] = {}
    for name in needed:
        col = ds.column(name).astype(float)
        numeric[name] = col
        valid &= ~np.isnan(col)
    strings: dict[str, np.ndarray] = {}
    for name in str_cols:
        col = ds.column(name)
        strings[name] = col
        valid &= col != ""

    dropped = int(n - valid.sum())
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        raise Underdetermined("no rows left after dropping missing values")

    y = numeric[spec.outcome][idx]
    w = np.column_stack([numeric[c][idx] for c in spec.endogenous]) if spec.endogenous \
        else np.empty((idx.size, 0))
    controls = [numeric[c][idx] for c in spec.controls]
    x = np.column_stack(controls + [np.ones(idx.size)])

    z_cols: list[np.ndarray] = []
    z_names: list[str] = []
    if spec.instruments != "none":
        arm = strings["arm"][idx]
        arm_levels = np.unique(arm)
        if len(arm_levels) < 2:
            raise ConstantColumn(
                f"arm has a single level {arm_levels[0]!r}; the instrument is unusable"
            )
        treated_levels = arm_levels[1:]  # lowest level is the baseline
        if spec.instruments == "arm":
            for lvl in treated_levels:
                z_cols.append((arm == lvl).astype(float))
                z_names.append(f"arm={lvl}")
        else:
            reason = strings[_reason_column(ds)][idx]
            for lvl in treated_levels:
                is_lvl = arm == lvl
                for r in np.unique(reason):
                    z_cols.append((is_lvl & (reason == r)).astype(float))
                    z_names.append(f"arm={lvl}*reason={r}")
    z = np.column_stack(z_cols) if z_cols else np.empty((idx.size, 0))

    for names, mat, role in ((spec.endogenous, w, "endogenous"), (z_names, z, "instrument")):
        for j, name in enumerate(names):
            col = mat[:, j]
            if col.max() == col.min():
                raise ConstantColumn(f"{role} column {name!r} has zero variance")

    if spec.instruments != "none" and z.shape[1] < w.shape[1]:
        raise Underidentified(
            f"{z.shape[1]} instruments for {w.shape[1]} endogenous columns"
        )

    clusters = ds.column(spec.cluster)[idx]
    return DesignMatrix(
        y=y,
        w=w,
        z=z,
        x=x,
        w_names=tuple(spec.endogenous),
        z_names=tuple(z_names),
        x_names=tuple(spec.controls) + ("Constant",),
        clusters=clusters,
        row_index=idx,
        outcome_name=spec.outcome,
        n_dropped=dropped,
    )


def aggregate_sessions(ds: Dataset, top_cut: int = 4) -> Dataset:
    """One row per request: top/bottom slot counts and the outcome total.

    reason_mode is the most frequent reason in the session, ties resolved to
    the lexicographically smallest.
    """
    if ds.n_rows == 0:
        raise ValueError("empty dataset")
    if top_cut < 0:
        raise ValueError("top_cut must be >= 0")
    req = ds.column("request_id")
    uniq, inverse = np.unique(req, return_inverse=True)
    g = len(uniq)
    position = ds.column("position")
    outcome = ds.column("outcome")

    n_top = np.bincount(inverse, weights=(position <= top_cut).astype(float), minlength=g)
    n_all = np.bincount(inverse, minlength=g)
    invite = np.bincount(inverse, weights=outcome.astype(float), minlength=g)

    # first occurrence per group
    first = np.full(g, len(req), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(req)))

    data: dict[str, np.ndarray] = {
        "request_id": uniq,
        "user_id": ds.column("user_id")[first],
        "n_top_spot": n_top.astype(np.int64),
        "n_bottom_spot": (n_all - n_top).astype(np.int64),
        "invite_total": invite.astype(np.int64),
    }
    if ds.has_column("arm"):
        data["arm"] = ds.column("arm")[first]
    if ds.has_column("reason"):
        data["reason_mode"] = _mode_per_group(inverse, ds.column("reason"), g)

    order_out = np.lexsort((data["request_id"], data["user_id"]))
    data = {k: v[order_out] for k, v in data.items()}
    return Dataset(
        data, SESSION_SCHEMA, f"{ds.provenance} | aggregate_sessions top_cut={top_cut}"
    )


def _mode_per_group(group_of_row: np.ndarray, values: np.ndarray, g: int) -> np.ndarray:
    order = np.lexsort((values, group_of_row))
    gb, vb = group_of_row[order], values[order]
    n = len(gb)
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = (gb[1:] != gb[:-1]) | (vb[1:] != vb[:-1])
    starts = np.flatnonzero(run_start)
    run_group = gb[starts]
    run_value = vb[starts]
    run_len = np.diff(np.append(starts, n))
    # per group: largest run, ties to the smallest value (lexsort is stable
    # and run_value is sorted ascending within group already)
    pick = np.lexsort((-run_len, run_group))
    first = np.ones(len(pick), dtype=bool)
    rg = run_group[pick]
    first[1:] = rg[1:] != rg[:-1]
    out = np.empty(g, dtype=values.dtype)
    out[rg[first]] = run_value[pick[first]]
    return out
