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

All randomness is counter-based (see rng), so identical configs produce
byte-identical datasets regardless of chunking or parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import rng
from .datamodel import EDGE_SCHEMA, Dataset
from .errors import InvalidConfig

SCORE_NOISE_SD = 0.25
OBS_NOISE_SD = 0.35
AUDIT_REQUESTS = 200
_CHUNK_CELLS = 4_000_000


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
        counts = {
            "n_users": self.n_users,
            "n_items": self.n_items,
            "requests_per_user": self.requests_per_user,
            "slots_per_request": self.slots_per_request,
            "n_reasons": self.n_reasons,
        }
        for name, value in counts.items():
            if not isinstance(value, int) or value < 1:
                raise InvalidConfig(f"{name} must be an integer >= 1, got {value!r}")
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
        if not isinstance(self.seed, int):
            raise InvalidConfig("seed must be an integer")


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


def _user_arms(config: SimConfig) -> np.ndarray:
    user_ids = np.arange(1, config.n_users + 1, dtype=np.uint64)
    return rng.uniform(rng.stream_key(config.seed, rng.TAG_ARM, user_ids)) < 0.5


def _directions(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    if config.marketplace_mode == "ads":
        ids = np.arange(1, config.n_items + 1, dtype=np.uint64)
        u = rng.uniform(rng.stream_key(config.seed, rng.TAG_DIRECTION, ids))
        item_dir = np.where(u < config.instrument_share_negative, 1.0, -1.0)
        return item_dir, np.zeros(0)
    ids = np.arange(config.n_reasons, dtype=np.uint64)
    u = rng.uniform(rng.stream_key(config.seed, rng.TAG_DIRECTION, ids))
    reason_dir = np.where(u < config.instrument_share_negative, 1.0, -1.0)
    return np.zeros(config.n_items), reason_dir


def simulate(config: SimConfig) -> tuple[Dataset, SimTruth]:
    """Generate an edge-level Dataset plus the truth it was drawn from."""
    config.validate()
    seed = config.seed
    pymk = config.marketplace_mode == "pymk"
    slots = config.slots_per_request
    n_requests = config.n_users * config.requests_per_user

    treated_by_user = _user_arms(config)
    item_dir, reason_dir = _directions(config)
    item_ids_all = np.arange(1, config.n_items + 1, dtype=np.uint64)
    slopes = config.effect_slope_mean + config.effect_slope_sd * rng.normal(
        rng.stream_key(seed, rng.TAG_SLOPE, item_ids_all)
    )

    reason_width = max(2, len(str(config.n_reasons - 1)))
    reason_labels = np.array([f"r{i:0{reason_width}d}" for i in range(config.n_reasons)])

    cols: dict[str, list[np.ndarray]] = {
        name: [] for name in ("request_id", "user_id", "item_id", "position",
                              "outcome", "arm", "reason", "relevance_score",
                              "relevance_true", "p_raw")
    }
    clip_count = 0

    chunk = max(1, _CHUNK_CELLS // config.n_items)
    item_index_row = np.arange(config.n_items, dtype=np.uint64)[None, :]
    for start in range(0, n_requests, chunk):
        stop = min(start + chunk, n_requests)
        req_index = np.arange(start, stop, dtype=np.uint64)
        m = len(req_index)
        req_ids = req_index + np.uint64(1)
        user_index = (req_index // np.uint64(config.requests_per_user)).astype(np.int64)
        user_ids = (user_index + 1).astype(np.uint64)
        treated = treated_by_user[user_index]

        select_key = rng.stream_key(seed, rng.TAG_SELECT, req_ids)[:, None]
        keys = rng.raw64(select_key, item_index_row)
        if slots < config.n_items:
            sel = np.argpartition(keys, slots - 1, axis=1)[:, :slots]
        else:
            sel = np.broadcast_to(np.arange(config.n_items), (m, config.n_items)).copy()
        item_ids = (sel + 1).astype(np.uint64)

        req_mat = np.broadcast_to(req_ids[:, None], item_ids.shape)
        user_mat = np.broadcast_to(user_ids[:, None], item_ids.shape)

        relevance = rng.uniform(rng.stream_key(seed, rng.TAG_RELEVANCE, user_mat, item_ids)) - 0.5
        noise = rng.normal(rng.stream_key(seed, rng.TAG_SCORE_NOISE, req_mat, item_ids))

        if pymk:
            reason_idx = (
                rng.raw64(rng.stream_key(seed, rng.TAG_REASON, user_mat, item_ids))
                % np.uint64(config.n_reasons)
            ).astype(np.int64)
            direction = reason_dir[reason_idx]
        else:
            reason_idx = None
            direction = item_dir[sel]

        score = relevance + SCORE_NOISE_SD * noise
        score += config.instrument_strength * direction * treated[:, None]

        order = np.argsort(-score, axis=1, kind="stable")
        position = np.empty_like(order)
        np.put_along_axis(position, order, np.arange(1, slots + 1)[None, :].repeat(m, 0), axis=1)

        p_raw = (
            config.base_rate
            + config.confound_strength * relevance
            + slopes[sel] * (position - 1)
        )
        p = np.clip(p_raw, 0.0, 1.0)
        clip_count += int(np.count_nonzero((p_raw < 0.0) | (p_raw > 1.0)))

        udraw = rng.uniform(rng.stream_key(seed, rng.TAG_OUTCOME, req_mat, item_ids))
        outcome = udraw < p
        if not pymk:
            pos_success = np.where(outcome, position, slots + 1)
            best = pos_success.min(axis=1, keepdims=True)
            outcome &= position == best

        obs = relevance + 0.5 + OBS_NOISE_SD * rng.normal(
            rng.stream_key(seed, rng.TAG_OBS_NOISE, req_mat, item_ids)
        )
        obs = np.clip(obs, 0.0, 1.0)

        # reorder each request by position so the flattened table is already
        # sorted by (user_id, request_id, position)
        def by_pos(a):
            return np.take_along_axis(a, order, axis=1).reshape(-1)

        cols["request_id"].append(by_pos(np.ascontiguousarray(req_mat)))
        cols["user_id"].append(by_pos(np.ascontiguousarray(user_mat)))
        cols["item_id"].append(by_pos(item_ids))
        cols["position"].append(by_pos(position).astype(np.int64))
        cols["outcome"].append(by_pos(outcome).astype(np.int64))
        arm = np.where(treated[:, None], "treatment", "control")
        cols["arm"].append(np.broadcast_to(arm, item_ids.shape).reshape(-1))
        if pymk:
            cols["reason"].append(reason_labels[by_pos(reason_idx)])
        cols["relevance_score"].append(by_pos(obs))
        if start < AUDIT_REQUESTS:
            cols["relevance_true"].append(by_pos(relevance))
            cols["p_raw"].append(by_pos(p_raw))

    data = {
        "request_id": np.concatenate(cols["request_id"]),
        "user_id": np.concatenate(cols["user_id"]),
        "item_id": np.concatenate(cols["item_id"]),
        "position": np.concatenate(cols["position"]),
        "outcome": np.concatenate(cols["outcome"]),
        "arm": np.concatenate(cols["arm"]),
        "relevance_score": np.concatenate(cols["relevance_score"]),
    }
    if pymk:
        data["reason"] = np.concatenate(cols["reason"])
        data["session_depth"] = np.full(len(data["position"]), float(slots))

    n_rows = len(data["position"])
    provenance = (
        f"simulate seed={seed} mode={config.marketplace_mode} "
        f"users={config.n_users} requests={n_requests} slots={slots}"
    )
    ds = Dataset(data, EDGE_SCHEMA, provenance)

    n_audit = min(AUDIT_REQUESTS, n_requests) * slots
    rel_true = np.concatenate(cols["relevance_true"])
    p_raw_all = np.concatenate(cols["p_raw"])
    audit = {
        "request_id": data["request_id"][:n_audit].copy(),
        "user_id": data["user_id"][:n_audit].copy(),
        "item_id": data["item_id"][:n_audit].copy(),
        "position": data["position"][:n_audit].copy(),
        "relevance": rel_true[:n_audit].copy(),
        "p_raw": p_raw_all[:n_audit].copy(),
        "p": np.clip(p_raw_all[:n_audit], 0.0, 1.0),
    }
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
