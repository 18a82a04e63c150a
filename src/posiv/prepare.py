"""Turn raw Datasets into estimation-ready designs.

Deterministic one-row-per-request sampling (so responses are independent
across rows), per-item slicing, instrument expansion, and session-level
aggregation. Everything is a pure function of its inputs; the sampling hash
keys on (seed, request_id, within-request ordinal) so results do not depend
on iteration order.

The per-item analyses stack their items: slice_by_item takes a list of items
and groups their rows with one stable argsort, and build_design(by_item=True)
builds every item's design in one vectorized pass over those rows, each item
with the semantics of a design built from its slice alone. Every design has
one form: a design not built by item is the stack of one item, labelled None.
Instruments come from the arm and reason codes the Dataset already holds:
code order is string order, so no level is coded again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .datamodel import SESSION_SCHEMA, Dataset, _distinct
from .errors import (
    ConstantColumn,
    EstimationError,
    MissingColumn,
    Underdetermined,
    Underidentified,
    UnknownItem,
)
from .specs import ModelSpec


@dataclass(frozen=True)
class ItemBlocks:
    """Where each item of a design lives.

    Item g owns rows bounds[g]:bounds[g+1]. codes numbers each item's
    clusters 0.. in the order of their ids. Item g's instruments are the
    first z_bounds[g+1] - z_bounds[g] columns of the design's z, and their
    names are z_names[c] for c in z_cols[z_bounds[g]:z_bounds[g+1]]. An item
    that could not be built keeps its rows and columns and the
    EstimationError it raised in errors[g], by which the fits skip it. A
    single design is one item labelled None.
    """

    labels: tuple[str | None, ...]
    bounds: np.ndarray
    codes: np.ndarray
    z_cols: np.ndarray
    z_bounds: np.ndarray
    errors: tuple[EstimationError | None, ...]


@dataclass
class DesignMatrix:
    """Columns for one regression per item: outcome, endogenous, instruments,
    controls.

    x always ends with the constant column. Instruments are the excluded ones
    only (controls are implicitly included in the first stage). The arrays
    hold the items' rows one item after another, and `items` says which
    rows, clusters and instruments belong to which item. z is as wide as the
    item with the most instruments, and holds each item's own columns first:
    z_names holds every item's names once, and items picks each item's.
    """

    y: np.ndarray
    w: np.ndarray  # (n, p_w) endogenous
    z: np.ndarray  # (n, widest p_z) excluded instruments, item-local columns
    x: np.ndarray  # (n, p_x) controls, constant last
    w_names: tuple[str, ...]
    z_names: tuple[str, ...]
    x_names: tuple[str, ...]
    items: ItemBlocks
    outcome_name: str = "outcome"
    n_dropped: int = 0

    def __post_init__(self):
        n = len(self.y)
        for name, arr in (("w", self.w), ("z", self.z), ("x", self.x)):
            if arr.ndim != 2 or arr.shape[0] != n:
                raise ValueError(f"{name} must be (n, k) with n == len(y)")
        if len(self.items.codes) != n:
            raise ValueError("cluster codes length mismatch")

    @property
    def n_obs(self) -> int:
        return len(self.y)


def _winner_per_request(
    request_ids: np.ndarray, seed: int, groups: np.ndarray | None = None
) -> np.ndarray:
    """Indices of the kept row per request under the deterministic hash rule.

    Each row scores raw64(key(seed, request_id), ordinal) where the ordinal
    counts that request's rows in dataset order; the max score wins, and
    equal scores go to the lowest ordinal. With groups (an item per row), the rule runs within each (group, request).
    Returned indices are in ascending dataset order.
    """
    keys, order = (request_ids,), None
    if groups is not None or (request_ids[1:] < request_ids[:-1]).any():
        # a log in request order, as simulate writes it, needs neither the
        # sort nor its gathers
        order = np.argsort(request_ids, kind="stable")
        keys = (request_ids[order],)
    if groups is not None:
        # each request's rank times the group count, plus the group: a stable
        # sort of these keys puts each (group, request)'s rows together
        new = np.ones(len(order), dtype=np.int64)
        new[1:] = keys[0][1:] != keys[0][:-1]
        pair = (np.cumsum(new) - 1) * (int(groups.max(initial=0)) + 1) + groups[order]
        order = order[np.argsort(pair, kind="stable")]
        keys = (request_ids[order], groups[order])
    n = len(request_ids)
    new_group = np.zeros(n + 1, dtype=bool)
    new_group[[0, n]] = True
    for key in keys:
        new_group[1:n] |= key[1:] != key[:-1]
    keep = new_group[:-1] & new_group[1:]  # a request with one row keeps it
    shared = ~keep
    starts = np.flatnonzero(new_group[:-1][shared])  # each shared request's first row
    m = n - np.count_nonzero(keep)
    sizes = np.diff(np.append(starts, m))
    ordinal = np.arange(m) - np.repeat(starts, sizes)
    ordinal = ordinal.astype(np.min_scalar_type(sizes.max(initial=0)))
    scores = keys[0][shared]
    rng.raw64(rng.stream_key(seed, rng.TAG_SAMPLE, scores, out=scores), ordinal, out=scores)
    # each request's rows lie together in ordinal order, so its winner is the
    # first row that reaches the request's max: ties go to the lowest ordinal
    hit = np.flatnonzero(scores == np.repeat(np.maximum.reduceat(scores, starts), sizes))
    del scores
    keep[np.flatnonzero(shared)[hit[np.searchsorted(hit, starts)]]] = True
    winners = np.flatnonzero(keep)
    return winners if order is None else np.sort(order[winners])


def sample_one_per_request(ds: Dataset, seed: int) -> Dataset:
    """Keep exactly one uniformly chosen row per request."""
    if ds.n_rows == 0:
        raise ValueError("empty dataset")
    winners = _winner_per_request(ds.column("request_id"), seed)
    return ds.subset(
        winners, provenance=f"{ds.provenance} | sample_one_per_request seed={seed}"
    )


def slice_by_item(ds: Dataset, items: int | Sequence[int], seed: int = 0) -> Dataset:
    """Rows of the given items (one id or several), one item after another
    in the order given, at most one per (item, request) (hash rule with this
    seed).

    An item's rows keep their dataset order, and each item's rows are exactly
    those of slicing that item alone. Only the distinct item ids, from one
    sort of the item column, are looked up among the wanted ids.
    """
    try:
        wanted = np.atleast_1d(np.array(items, dtype=np.uint64))
    except OverflowError:
        raise UnknownItem(f"item {items} not present") from None
    if not wanted.size or len(_distinct(wanted)) < wanted.size:
        raise ValueError("items must be one or more distinct ids")
    item_ids = ds.column("item_id")
    distinct, inverse = np.unique(item_ids, return_inverse=True)
    by_id = np.argsort(wanted)
    at = np.minimum(np.searchsorted(wanted[by_id], distinct), len(wanted) - 1)
    # the smallest integer type for item positions lets the stable sort run as a radix sort
    code = by_id.astype(np.min_scalar_type(len(wanted)))[at]
    rows = np.flatnonzero((wanted[code] == distinct)[inverse])
    group = code[inverse[rows]]
    sizes = np.bincount(group, minlength=len(wanted))
    if not sizes.all():
        raise UnknownItem(f"item {wanted[np.argmin(sizes)]} not present")
    winners = _winner_per_request(ds.column("request_id")[rows], seed, group)
    rows, group = rows[winners], group[winners]
    return ds.subset(rows[np.argsort(group, kind="stable")],
                     provenance=f"{ds.provenance} | items={len(wanted)}")


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


def _reduce_items(ufunc, values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """ufunc.reduce over each item's rows; an item without rows gets 0."""
    out = np.zeros(len(bounds) - 1, dtype=values.dtype)
    has_rows = np.diff(bounds) > 0
    if has_rows.any():
        out[has_rows] = ufunc.reduceat(values, bounds[:-1][has_rows])
    return out


def _pairs(item: np.ndarray, codes: np.ndarray, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (item, level) pairs the rows show, sorted by item, then level."""
    flat = _distinct(item * n_levels + codes)
    return flat // n_levels, flat % n_levels


def _cluster_codes(clusters: np.ndarray, item: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Each row's cluster numbered 0.. within its item in the order of the
    ids (item g owns rows bounds[g]:bounds[g+1]): one sort of the ids, then a
    stable sort of their items as a small unsigned type, a radix sort, ranks
    the rows by (item, id)."""
    order = np.argsort(clusters)
    if len(bounds) > 2:
        small = item.astype(np.min_scalar_type(len(bounds) - 2))
        order = order[np.argsort(small[order], kind="stable")]
    ordered = clusters[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    if ordered.dtype.kind == "f":  # NaNs sort last, and are one id as in np.unique
        new[1:] &= ~(np.isnan(ordered[1:]) & np.isnan(ordered[:-1]))
    rank = np.cumsum(new)
    codes = np.empty(len(order), dtype=np.intp)
    # sorted by item, position j belongs to item[j], which starts at bounds[item[j]]
    codes[order] = rank - rank[bounds[item]]
    return codes


def build_design(ds: Dataset, spec: ModelSpec, by_item: bool = False) -> DesignMatrix:
    """Materialize a ModelSpec against a Dataset.

    Rows missing any named value are dropped (and counted). The "arm*reason"
    expression expands to indicator products of each non-baseline arm level
    with every observed reason level; the baseline arm level (the first in
    string order) is dropped, which with a binary arm leaves treatment-only
    indicators. Levels that no kept row shows make no column.

    With by_item=True the design stacks one design per item of ds, each
    built as if from that item's rows alone: its own drops, baseline arm
    level, reason levels and clusters. Each item's rows must lie together,
    as slice_by_item returns them. An item that cannot be built records its
    EstimationError in design.items instead of raising. Without it, ds is
    one item labelled None, whose first error is raised.
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
    texts: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name in str_cols:
        texts[name] = codes, levels = ds.coded(name)
        if levels.size and levels[0] == "":  # levels are sorted, so "" is code 0
            valid &= codes != 0

    dropped = int(n - valid.sum())
    idx = np.flatnonzero(valid)
    if by_item:
        item_ids = ds.column("item_id")
        run_start = np.ones(n, dtype=bool)
        run_start[1:] = item_ids[1:] != item_ids[:-1]
        heads = item_ids[run_start]
        if len(_distinct(heads)) < len(heads):
            raise ValueError("by_item needs each item's rows together, as slice_by_item gives")
        labels = tuple(str(i) for i in heads.tolist())
        item = (np.cumsum(run_start) - 1)[idx]
    else:
        labels = (None,)
        item = np.zeros(idx.size, dtype=np.intp)
    n_items = len(labels)
    sizes = np.bincount(item, minlength=n_items)
    bounds = np.concatenate([[0], np.cumsum(sizes)])

    errors: list[EstimationError | None] = [None] * n_items

    def fail(bad: np.ndarray, error) -> None:
        # the first error an item meets is the one it reports
        for g in np.flatnonzero(bad):
            if errors[g] is None:
                errors[g] = error(g)

    fail(sizes == 0, lambda g: Underdetermined("no rows left after dropping missing values"))

    y = numeric[spec.outcome][idx]
    w = np.column_stack([numeric[c][idx] for c in spec.endogenous]) if spec.endogenous \
        else np.empty((idx.size, 0))
    controls = [numeric[c][idx] for c in spec.controls]
    x = np.column_stack(controls + [np.ones(idx.size)])

    # instrument columns are indicators of (arm level, reason level) pairs,
    # coded arm * n_reasons + reason ("arm" alone has one reason level);
    # item g's columns are the pairs (col_item == g, col) it shows with an
    # arm level other than its baseline
    pair, n_pairs = np.zeros(idx.size, dtype=np.intp), 1
    col_item, col = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    p_z = np.zeros(n_items, dtype=np.intp)

    def name(c: int) -> str:
        a, r = divmod(c, len(reason_levels))
        both = spec.instruments == "arm*reason"
        return f"arm={arm_levels[a]}" + (f"*reason={reason_levels[r]}" if both else "")

    if spec.instruments != "none":
        # cast the codes before any arithmetic: uint8 codes times an int stay uint8
        arm_codes, arm_levels = texts["arm"]
        arm = arm_codes[idx].astype(np.intp)
        reason_levels, reason = np.array([""]), np.zeros(idx.size, dtype=np.intp)
        if spec.instruments == "arm*reason":
            reason_codes, reason_levels = texts[_reason_column(ds)]
            reason = reason_codes[idx].astype(np.intp)
        pair, n_pairs = arm * len(reason_levels) + reason, len(arm_levels) * len(reason_levels)
        col_item, col = _pairs(item, pair, n_pairs)
        col_arm, col_reason = np.divmod(col, len(reason_levels))
        n_arms = np.bincount(_pairs(col_item, col_arm, len(arm_levels))[0], minlength=n_items)
        baseline = _reduce_items(np.minimum, arm, bounds)  # lowest level is the baseline
        fail(n_arms == 1, lambda g: ConstantColumn(
            f"arm has a single level {str(arm_levels[baseline[g]])!r}; the instrument is unusable"
        ))
        n_reasons = np.bincount(
            _pairs(col_item, col_reason, len(reason_levels))[0], minlength=n_items
        )
        p_z = np.maximum(n_arms - 1, 0) * n_reasons
        treated = col_arm != baseline[col_item]
        col_item, col = col_item[treated], col[treated]

    for j, endogenous in enumerate(spec.endogenous):
        lo = _reduce_items(np.minimum, w[:, j], bounds)
        hi = _reduce_items(np.maximum, w[:, j], bounds)
        fail(lo == hi, lambda g, e=endogenous: ConstantColumn(
            f"endogenous column {e!r} has zero variance"
        ))
    item_start = np.searchsorted(col_item, np.arange(n_items + 1))

    def first_empty(g):
        # the first (arm, reason) column, in code order, the item never shows
        arms = _distinct(arm[bounds[g]:bounds[g + 1]])
        arms = arms[arms != baseline[g]]
        reasons = _distinct(reason[bounds[g]:bounds[g + 1]])
        every = (arms[:, None] * len(reason_levels) + reasons).ravel()
        return every[~np.isin(every, col[item_start[g]:item_start[g + 1]])][0]

    # an item here has baseline rows, so a column it never shows is all 0
    fail(np.bincount(col_item, minlength=n_items) < p_z, lambda g: ConstantColumn(
        f"instrument column {name(first_empty(g))!r} has zero variance"
    ))
    p_w, p_x = w.shape[1], x.shape[1]
    if spec.instruments != "none":
        fail(p_z < p_w, lambda g: Underidentified(
            f"{p_z[g]} instruments for {p_w} endogenous columns"
        ))
    fail(sizes < p_w + p_z + p_x, lambda g: Underdetermined(
        f"{sizes[g]} rows for {p_w + p_z[g] + p_x} columns"
    ))
    if not by_item and errors[0] is not None:
        raise errors[0]

    # a row's instrument column is the rank of its pair among its item's
    # columns, which lie sorted by (item, pair) in own
    own, key = col_item * n_pairs + col, item * n_pairs + pair
    at = np.searchsorted(own, key)
    rows = np.flatnonzero(np.append(own, -1)[at] == key)
    z = np.zeros((idx.size, int(np.diff(item_start).max(initial=0))), dtype=bool)
    z[rows, at[rows] - item_start[item[rows]]] = True
    in_use = _distinct(col)
    items = ItemBlocks(
        labels=labels,
        bounds=bounds,
        codes=_cluster_codes(ds.column(spec.cluster)[idx], item, bounds),
        z_cols=np.searchsorted(in_use, col),
        z_bounds=item_start,
        errors=tuple(errors),
    )
    return DesignMatrix(
        y=y,
        w=w,
        z=z,
        x=x,
        w_names=tuple(spec.endogenous),
        z_names=tuple(name(c) for c in in_use.tolist()),
        x_names=tuple(spec.controls) + ("Constant",),
        items=items,
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
    # np.unique's index is each request's first row
    uniq, first, inverse = np.unique(
        ds.column("request_id"), return_index=True, return_inverse=True
    )
    g = len(uniq)
    position = ds.column("position")
    outcome = ds.column("outcome")

    n_top = np.bincount(inverse, weights=(position <= top_cut).astype(float), minlength=g)
    n_all = np.bincount(inverse, minlength=g)
    invite = np.bincount(inverse, weights=outcome.astype(float), minlength=g)

    data: dict[str, np.ndarray] = {
        "request_id": uniq,
        "user_id": ds.column("user_id")[first],
        "n_top_spot": n_top.astype(np.int64),
        "n_bottom_spot": (n_all - n_top).astype(np.int64),
        "invite_total": invite.astype(np.int64),
    }
    levels = {}
    if ds.has_column("arm"):
        codes, levels["arm"] = ds.coded("arm")
        data["arm"] = codes[first]
    if ds.has_column("reason"):
        codes, levels["reason_mode"] = ds.coded("reason")
        data["reason_mode"] = _mode_per_group(inverse, codes, g)

    order_out = np.lexsort((data["request_id"], data["user_id"]))
    data = {k: v[order_out] for k, v in data.items()}
    return Dataset(
        data, SESSION_SCHEMA, f"{ds.provenance} | aggregate_sessions top_cut={top_cut}",
        levels=levels,
    )


def _mode_per_group(group_of_row: np.ndarray, codes: np.ndarray, g: int) -> np.ndarray:
    """Each group's most frequent code, ties to the smallest: the smallest
    level, as code order is string order."""
    n_levels = int(codes.max()) + 1
    pairs, counts = np.unique(group_of_row * n_levels + codes, return_counts=True)
    # by group, then by count down; the sort is stable, so equal counts keep code order
    pick = pairs[np.lexsort((-counts, pairs // n_levels))]
    first = np.ones(len(pick), dtype=bool)
    first[1:] = pick[1:] // n_levels != pick[:-1] // n_levels
    out = np.empty(g, dtype=codes.dtype)
    out[pick[first] // n_levels] = pick[first] % n_levels
    return out
