"""Inputs of the workloads, made from the run's --seed.

The simulator configs are fixed; only their `seed` comes from the run. The
ads file is rewritten from the simulator's output so that loading it takes
the slow paths of `posiv.datamodel`: ids that are not numbers (FNV-1a
hashed), rows that fail validation and are dropped, and exact duplicates.
"""

from __future__ import annotations

import csv
import json

import numpy as np

PYMK_SIM = {
    "n_users": 12_000, "n_items": 100, "requests_per_user": 1,
    "slots_per_request": 10, "effect_slope_mean": -0.04, "effect_slope_sd": 0.0,
    "confound_strength": 0.5, "instrument_strength": 0.8,
    "instrument_share_negative": 0.5, "base_rate": 0.62,
    "marketplace_mode": "pymk", "n_reasons": 22,
}

ADS_SIM = {
    "n_users": 12_000, "n_items": 1_200, "requests_per_user": 1,
    "slots_per_request": 10, "effect_slope_mean": -0.02, "effect_slope_sd": 0.005,
    "confound_strength": 0.3, "instrument_strength": 0.8,
    "instrument_share_negative": 0.5, "base_rate": 0.35,
    "marketplace_mode": "ads",
}

# The shape of scripts/run_recovery_study.py at its strongest confounding.
MC_SIM = {
    "n_users": 10_000, "n_items": 100, "requests_per_user": 1,
    "slots_per_request": 6, "effect_slope_mean": -0.04, "effect_slope_sd": 0.0,
    "confound_strength": 0.5, "instrument_strength": 0.8,
    "instrument_share_negative": 0.5, "base_rate": 0.5,
    "marketplace_mode": "pymk", "n_reasons": 22,
}
MC_REPLICATIONS = 8

# One malformed copy of a clean row per entry: (column, bad value). Each one
# fails a different validation rule of load_dataset, so each row is dropped.
MALFORMED = (
    ("position", "0"), ("position", "x"), ("outcome", "2"), ("outcome", ""),
    ("relevance_score", "1.5"), ("relevance_score", "nan"), ("arm", ""),
    ("request_id", ""),
)
MALFORMED_ROUNDS = 3
N_MALFORMED = len(MALFORMED) * MALFORMED_ROUNDS
N_DUPLICATES = 40


def write_config(path, sim: dict, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**sim, "seed": seed}, fh)


def mc_seeds(seed: int) -> list[int]:
    return [seed * 1000 + i for i in range(MC_REPLICATIONS)]


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit over UTF-8, the hash posiv applies to non-numeric ids."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def campaign_label(item: int) -> str:
    return f"campaign-{item:05d}"


def user_label(user: int) -> str:
    return f"user-{user:06d}"


def rewrite_ads(src, dst, seed: int) -> dict:
    """Rewrite the simulator's ads CSV at `src` into `dst`.

    User and item ids become labels, N_MALFORMED broken copies of clean rows
    and N_DUPLICATES exact copies of distinct clean rows are inserted at
    seeded places. Returns the clean rows as columns (item ids as the
    simulator's integers) for the checks.
    """
    with open(src, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    col = {name: j for j, name in enumerate(header)}
    for row in rows:
        row[col["user_id"]] = user_label(int(row[col["user_id"]]))
        row[col["item_id"]] = campaign_label(int(row[col["item_id"]]))

    rng = np.random.default_rng([seed, 0xAD5])
    picks = rng.choice(len(rows), N_MALFORMED + N_DUPLICATES, replace=False)
    extra = []
    for k, src_row in enumerate(picks[:N_MALFORMED]):
        name, bad = MALFORMED[k % len(MALFORMED)]
        broken = list(rows[src_row])
        broken[col[name]] = bad
        extra.append(broken)
    extra.extend(list(rows[i]) for i in picks[N_MALFORMED:])
    at = np.sort(rng.integers(0, len(rows) + 1, len(extra)))
    out = []
    prev = 0
    for place, row in zip(at, extra):
        out.extend(rows[prev:place])
        out.append(row)
        prev = place
    out.extend(rows[prev:])
    with open(dst, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(out)

    cells = list(zip(*rows))
    return {
        "item": np.array([int(v.rsplit("-", 1)[1]) for v in cells[col["item_id"]]]),
        "position": np.array(cells[col["position"]], dtype=float),
        "outcome": np.array(cells[col["outcome"]], dtype=float),
        "treated": np.array(cells[col["arm"]]) == "treatment",
        "relevance": np.array(cells[col["relevance_score"]], dtype=float),
    }
