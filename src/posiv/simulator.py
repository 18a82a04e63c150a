"""Synthetic two-sided-marketplace data with known position effects.

Generative model (one admissible instantiation of an additively confounded
ranking system; the joint law of relevance and position is not pinned down by
the estimand, so this module documents its choices):

* true relevance ``rel`` per (user, item) pair ~ Uniform(-1/2, 1/2);
* arm per user: treatment with probability 1/2;
* ranking score per (request, item):
  ``rel + SCORE_NOISE_SD * N(0,1) + instrument_strength * dir * 1(treated)``;
* position = descending-score rank within the request (1 = top);
* response probability ``p = base_rate + confound_strength * rel
  + c_item * (position - 1)``, clipped to [0, 1] with clip events counted;
  the position slope ``c_item`` ~ Normal(effect_slope_mean, effect_slope_sd).
  So ``base_rate`` is the top-slot response rate of an average-relevance item
  and the fitted position coefficient targets ``c_item`` directly;
* observed ``relevance_score`` = rel + 1/2 + OBS_NOISE_SD * N(0,1), clipped
  to [0, 1] (a noisy platform score, usable as a control but not as truth).

The shift direction ``dir`` (+1 improves rank under treatment) is drawn with
probability ``instrument_share_negative`` per *item* in ads mode and per
*reason* in pymk mode. Rank displacement inside a request sums to zero, so a
purely item-level shift identifies per-item first stages (the ads analysis)
but vanishes in a pooled regression; pooled estimation with treatment-reason
interaction instruments requires the reranking to move reason groups, which
is exactly how the pymk mode generates it.

Ads mode keeps at most one positive response per request: the best-position
Bernoulli success wins and later ones are suppressed.

A request shows the `slots` items with the smallest select keys, taken by one
sort in ascending key order (the stable sort below breaks only exact score
ties by that order). Rows are generated in position order: each request's
slots are sorted by score once, and every later draw and column is written in
that order straight into the final columns, so the table comes out sorted by
(user_id, request_id, position). All randomness is counter-based (see rng): identical
configs produce byte-identical datasets, and neither the chunk size nor the
size of the select step's blocks of requests changes the data or the audit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import rng
from .datamodel import EDGE_SCHEMA, Dataset
from .errors import InvalidConfig

SCORE_NOISE_SD = 0.25
OBS_NOISE_SD = 0.35
AUDIT_REQUESTS = 200
_CHUNK_CELLS = 1_000_000
# the select step keys a block of requests x n_items at a time, about 256 KB
_SELECT_CELLS = 32_768


@dataclass(frozen=True)
class SimConfig:
    """Ground-truth simulator parameters."""

    n_users: int = 1000
    n_items: int = 50
    requests_per_user: int = 1
    slots_per_request: int = 10
    effect_slope_mean: float = -0.04
    effect_slope_sd: float = 0.0
    confound_strength: float = 0.5
    instrument_strength: float = 0.8
    instrument_share_negative: float = 0.5
    base_rate: float = 0.6
    marketplace_mode: Literal["ads", "pymk"] = "pymk"
    n_reasons: int = 22
    seed: int = 0

    def validate(self) -> None:
        for name in ("n_users", "n_items", "requests_per_user", "slots_per_request", "n_reasons"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InvalidConfig(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("effect_slope_mean", "effect_slope_sd", "confound_strength",
                     "instrument_strength", "instrument_share_negative", "base_rate"):
            value = getattr(self, name)
            # the bound is False for nan and inf, and compares huge ints exactly
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
                raise InvalidConfig(f"{name} must be a finite number, got {value!r}")
        if self.slots_per_request > self.n_items:
            raise InvalidConfig("slots_per_request cannot exceed n_items")
        if not 0.0 <= self.instrument_share_negative <= 1.0:
            raise InvalidConfig("instrument_share_negative must lie in [0, 1]")
        if not 0.0 < self.base_rate < 1.0:
            raise InvalidConfig("base_rate must lie in (0, 1)")
        if self.effect_slope_sd < 0.0:
            raise InvalidConfig("effect_slope_sd must be >= 0")
        if self.marketplace_mode not in ("ads", "pymk"):
            raise InvalidConfig(f"unknown marketplace_mode {self.marketplace_mode!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InvalidConfig("seed must be an integer")
        if not 0 <= self.seed < 2**64:  # the random streams key on the seed's 64 bits
            raise InvalidConfig(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass
class SimTruth:
    """Everything the estimators are graded against.

    item_direction is the per-item ranking-shift direction (+1 means the item
    rises under treatment); it is all zeros in pymk mode, where the shift is
    carried by reason_direction instead. The audit block stores realized rows
    for the first AUDIT_REQUESTS requests so potential outcomes at arbitrary
    positions can be reconstructed exactly.
    """

    slopes: np.ndarray
    item_direction: np.ndarray
    reason_direction: np.ndarray
    base_rate: float
    confound_strength: float
    slots_per_request: int
    clip_count: int
    n_rows: int
    audit: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def clip_rate(self) -> float:
        return self.clip_count / self.n_rows if self.n_rows else 0.0

    def potential_outcome(self, item_id: int, relevance: float, position: int) -> float:
        """Pre-clipping response probability e at the given position."""
        c = self.slopes[int(item_id) - 1]
        return self.base_rate + self.confound_strength * relevance + c * (position - 1)


def ground_truth_tau(truth: SimTruth, k1: int, k2: int) -> float:
    """Analytic system-level effect of moving an item from position k1 to k2.

    Equals mean(slopes) * (k2 - k1): positive when moving up (k2 < k1) under
    the usual negative slopes.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError("positions must be >= 1")
    return float(np.mean(truth.slopes) * (k2 - k1))


def _directions(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """(item_direction, reason_direction): ads draws one per item, pymk one per reason."""
    ads = config.marketplace_mode == "ads"
    ids = np.arange(1, config.n_items + 1) if ads else np.arange(config.n_reasons)
    u = rng.uniform(rng.stream_key(config.seed, rng.TAG_DIRECTION, ids.astype(np.uint64)))
    drawn = np.where(u < config.instrument_share_negative, 1.0, -1.0)
    return (drawn, np.zeros(0)) if ads else (np.zeros(config.n_items), drawn)


def _smallest(keys: np.ndarray, slots: int) -> np.ndarray:
    """The first `slots` columns of a stable argsort of each row of uint64
    keys, from one in-place sort of packed keys: each key's high bits with
    its column index in the low bits, in key order wherever the high bits
    differ. A row whose high bits tie among its first slots + 1 sorted keys
    is selected again on its whole keys."""
    low = np.uint64((keys.shape[1] - 1).bit_length())
    index = (np.uint64(1) << low) - np.uint64(1)
    packed = keys & ~index
    packed |= np.arange(keys.shape[1], dtype=np.uint64)
    packed.sort(axis=1)
    high = packed[:, :slots + 1] >> low
    tied = (high[:, 1:] == high[:, :-1]).any(axis=1)
    picked = packed[:, :slots] & index
    if tied.any():
        picked[tied] = np.argsort(keys[tied], axis=1, kind="stable")[:, :slots]
    return picked


def simulate(config: SimConfig) -> tuple[Dataset, SimTruth]:
    """Generate an edge-level Dataset plus the truth it was drawn from."""
    config.validate()
    seed = config.seed
    pymk = config.marketplace_mode == "pymk"
    slots = config.slots_per_request
    per_user = config.requests_per_user
    n_requests = config.n_users * per_user
    n_rows = n_requests * slots

    user_ids = np.arange(1, config.n_users + 1, dtype=np.uint64)
    treated_by_user = rng.uniform(rng.stream_key(seed, rng.TAG_ARM, user_ids)) < 0.5
    item_dir, reason_dir = _directions(config)
    item_index = np.arange(config.n_items, dtype=np.uint64)
    slopes = config.effect_slope_mean + config.effect_slope_sd * rng.normal(
        rng.stream_key(seed, rng.TAG_SLOPE, item_index + np.uint64(1))
    )
    # indexed by item id, so an item_id column gathers without a subtraction
    slope_of, dir_of = np.append(0.0, slopes), np.append(0.0, item_dir)

    # zero-padded, the reason labels sort in code order
    reason_width = max(2, len(str(config.n_reasons - 1)))
    reason_labels = np.array([f"r{i:0{reason_width}d}" for i in range(config.n_reasons)])

    # the columns fixed per request are built whole; the chunks fill the rest
    data = {
        "request_id": np.repeat(np.arange(1, n_requests + 1, dtype=np.uint64), slots),
        "user_id": np.repeat(user_ids, per_user * slots),
        "item_id": np.empty(n_rows, dtype=np.uint64),
        "position": np.tile(np.arange(1, slots + 1, dtype=np.int64), n_requests),
        "outcome": np.empty(n_rows, dtype=np.int64),
        "arm": np.repeat(treated_by_user.astype(np.uint8), per_user * slots),
        "relevance_score": np.empty(n_rows),
    }
    if pymk:
        data["reason"] = np.empty(n_rows, dtype=np.min_scalar_type(config.n_reasons))
        data["session_depth"] = np.full(n_rows, float(slots))
    grid = {name: col.reshape(n_requests, slots) for name, col in data.items()}
    treated_by_request = np.repeat(treated_by_user, per_user)
    n_audit = min(AUDIT_REQUESTS, n_requests)
    audit_relevance = np.empty((n_audit, slots))
    audit_p_raw = np.empty((n_audit, slots))
    clip_count = 0

    chunk = min(max(1, _CHUNK_CELLS // config.n_items), n_requests)
    select_block = max(1, _SELECT_CELLS // config.n_items)
    # every draw of a chunk goes through these three or into its final column
    key_buf = np.empty((chunk, slots), dtype=np.uint64)
    a_buf, b_buf = np.empty((chunk, slots)), np.empty((chunk, slots))
    for start in range(0, n_requests, chunk):
        rows = slice(start, min(start + chunk, n_requests))
        req = grid["request_id"][rows, :1]
        user = grid["user_id"][rows, :1]
        ids = grid["item_id"][rows]
        key, a, b = key_buf[:len(req)], a_buf[:len(req)], b_buf[:len(req)]
        if slots < config.n_items:
            select_key = rng.stream_key(seed, rng.TAG_SELECT, req)
            for at in range(0, len(req), select_block):
                block = slice(at, at + select_block)
                ids[block] = _smallest(rng.raw64(select_key[block], item_index), slots)
            ids += np.uint64(1)
        else:
            ids[...] = item_index[:slots] + np.uint64(1)

        relevance = rng.uniform(rng.stream_key(seed, rng.TAG_RELEVANCE, user, ids, out=key), out=a)
        relevance -= 0.5
        score = rng.normal(rng.stream_key(seed, rng.TAG_SCORE_NOISE, req, ids, out=key), out=b)
        score *= SCORE_NOISE_SD
        score += relevance
        if pymk:
            reason_idx = rng.raw64(rng.stream_key(seed, rng.TAG_REASON, user, ids, out=key), out=key)
            reason_idx %= np.uint64(config.n_reasons)
            grid["reason"][rows] = reason_idx
            direction = reason_dir[reason_idx.view(np.intp)]
        else:
            direction = dir_of[ids.view(np.intp)]
        direction *= config.instrument_strength
        direction *= treated_by_request[rows, None]
        score += direction
        del direction

        # from here on each request's slots are in position order: a flat
        # index of each row's slots by descending score permutes the chunk
        # (every index is in range; take's default mode would buffer out)
        np.negative(score, out=score)
        order = np.argsort(score, axis=1, kind="stable")
        order += np.arange(0, order.size, slots)[:, None]
        relevance = np.take(a, order, out=b, mode="clip")
        np.copyto(key, ids)
        np.take(key, order, out=ids, mode="clip")
        if pymk:
            grid["reason"][rows] = np.take(grid["reason"][rows], order)
        del order

        p_raw = np.multiply(relevance, config.confound_strength, out=a)
        p_raw += config.base_rate
        slope = np.take(slope_of, ids.view(np.intp), out=key.view(np.float64), mode="clip")
        slope *= np.arange(slots)
        p_raw += slope
        clip_count += int(np.count_nonzero((p_raw < 0.0) | (p_raw > 1.0)))
        if start < n_audit:  # the rows past the audit's end fall off both slices
            audit_relevance[rows] = relevance[:n_audit - start]
            audit_p_raw[rows] = p_raw[:n_audit - start]
        np.clip(p_raw, 0.0, 1.0, out=p_raw)
        udraw = rng.uniform(rng.stream_key(seed, rng.TAG_OUTCOME, req, ids, out=key),
                            out=key.view(np.float64))
        outcome = np.less(udraw, p_raw, out=grid["outcome"][rows])
        if not pymk:
            outcome *= np.cumsum(outcome, axis=1) == 1

        obs = rng.normal(rng.stream_key(seed, rng.TAG_OBS_NOISE, req, ids, out=key), out=a)
        obs *= OBS_NOISE_SD
        relevance += 0.5
        obs += relevance
        np.clip(obs, 0.0, 1.0, out=grid["relevance_score"][rows])

    provenance = (
        f"simulate seed={seed} mode={config.marketplace_mode} "
        f"users={config.n_users} requests={n_requests} slots={slots}"
    )
    levels = {"arm": np.array(["control", "treatment"]), "reason": reason_labels}
    ds = Dataset(data, EDGE_SCHEMA, provenance, levels=levels)

    # read-only views of the first requests' rows
    audit = {name: ds.column(name)[:n_audit * slots]
             for name in ("request_id", "user_id", "item_id", "position")}
    audit["relevance"] = audit_relevance.reshape(-1)
    audit["p_raw"] = audit_p_raw.reshape(-1)
    audit["p"] = np.clip(audit["p_raw"], 0.0, 1.0)
    truth = SimTruth(
        slopes=slopes,
        item_direction=item_dir,
        reason_direction=reason_dir,
        base_rate=config.base_rate,
        confound_strength=config.confound_strength,
        slots_per_request=slots,
        clip_count=clip_count,
        n_rows=n_rows,
        audit=audit,
    )
    return ds, truth
