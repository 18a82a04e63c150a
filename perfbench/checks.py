"""Correctness checks computed apart from posiv, with numpy and csv only.

Each check raises CheckFailed with a message; none compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from inputs import N_DUPLICATES, N_MALFORMED, campaign_label, fnv1a64

COEF_TOL = 1e-9  # |program - reference| <= COEF_TOL * max(1, |reference|)
TRUTH_SES = 4.0  # a recovered slope lies within this many SEs of the truth


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_columns(path) -> dict[str, list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cells = list(zip(*reader))
    return dict(zip(header, cells))


def close(program: float, reference: float) -> bool:
    return abs(program - reference) <= COEF_TOL * max(1.0, abs(reference))


def lstsq(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(m, y, rcond=None)[0]


def two_stage(y, w, z, x) -> np.ndarray:
    """2SLS by two explicit least-squares stages; x includes the constant."""
    w_hat = np.column_stack([z, x]) @ lstsq(np.column_stack([z, x]), w)
    return lstsq(np.column_stack([w_hat, x]), y)


def position_coef(fit_json) -> tuple[float, float]:
    with open(fit_json, encoding="utf-8") as fh:
        fit = json.load(fh)
    j = fit["names"].index("position")
    return fit["coef"][j], fit["se"][j]


# -- pymk-pipeline ----------------------------------------------------------

def check_pymk(out, sim: dict) -> None:
    with open(out / "truth.json", encoding="utf-8") as fh:
        truth = json.load(fh)
    raw = read_columns(out / "dataset.csv")
    slots = sim["slots_per_request"]
    require(len(raw["request_id"]) == sim["n_users"] * slots,
            f"simulate wrote {len(raw['request_id'])} rows")

    prep = read_columns(out / "sampled" / "prepared.csv")
    y = np.array(prep["outcome"], dtype=float)
    pos = np.array(prep["position"], dtype=float)
    rel = np.array(prep["relevance_score"], dtype=float)
    require(len(y) == sim["n_users"], f"prepare kept {len(y)} rows, one per request expected")
    const = np.ones_like(y)
    treated = np.array(prep["arm"]) == "treatment"
    reason = np.array(prep["reason"])
    z = np.column_stack([treated & (reason == r) for r in np.unique(reason)]).astype(float)

    coef, se = position_coef(out / "spec5" / "fit.json")
    ref = float(two_stage(y, pos, z, np.column_stack([rel, const]))[0])
    require(close(coef, ref), f"spec5 coef {coef!r} != two-stage lstsq {ref!r}")
    require(abs(coef - truth["mean_slope"]) <= TRUTH_SES * se,
            f"spec5 coef {coef!r} is more than {TRUTH_SES} SEs ({se!r}) "
            f"from the true slope {truth['mean_slope']!r}")

    coef3, _ = position_coef(out / "spec3" / "fit.json")
    ref3 = float(lstsq(np.column_stack([pos, rel, const]), y)[0])
    require(close(coef3, ref3), f"spec3 coef {coef3!r} != lstsq {ref3!r}")

    sess = read_columns(out / "sessions" / "prepared.csv")
    req_raw = np.array(raw["request_id"], dtype=np.int64)
    totals = np.bincount(req_raw, weights=np.array(raw["outcome"], dtype=float))
    req = np.array(sess["request_id"], dtype=np.int64)
    require(len(req) == sim["n_users"] and len(np.unique(req)) == len(req),
            "session file is not one row per request")
    invite = np.array(sess["invite_total"], dtype=float)
    require(np.array_equal(invite, totals[req]),
            "invite_total differs from the group-by sum of outcome")
    size = np.array(sess["n_top_spot"], dtype=int) + np.array(sess["n_bottom_spot"], dtype=int)
    require(bool(np.all(size == slots)), "n_top_spot + n_bottom_spot != slot count")


# -- ads-campaigns ----------------------------------------------------------

def item_of_hash(items) -> dict[int, int]:
    return {fnv1a64(campaign_label(int(i))): int(i) for i in np.unique(items)}


def _by_item(clean: dict):
    order = np.argsort(clean["item"], kind="stable")
    items = clean["item"][order]
    bounds = np.flatnonzero(np.diff(items)) + 1
    starts = np.concatenate([[0], bounds])
    stops = np.concatenate([bounds, [len(items)]])
    for a, b in zip(starts, stops):
        idx = order[a:b]
        yield int(items[a]), {k: v[idx] for k, v in clean.items()}


def _diff_in_means(values, treated) -> float:
    return values[treated].mean() - values[~treated].mean()


def check_diagnose(path, clean: dict, truth_json) -> None:
    with open(truth_json, encoding="utf-8") as fh:
        direction = {int(k): v for k, v in json.load(fh)["item_direction"].items()}
    unhash = item_of_hash(clean["item"])
    got = read_columns(path)
    rows = {unhash[int(h)]: (float(c), cls)
            for h, c, cls in zip(got["item_id"], got["coef"], got["classification"])}
    require(len(rows) == len(got["item_id"]) == len(unhash),
            f"diagnose covered {len(got['item_id'])} items of {len(unhash)}")
    for item, data in _by_item(clean):
        coef, cls = rows[item]
        ref = float(_diff_in_means(data["position"], data["treated"]))
        require(close(coef, ref), f"{campaign_label(item)}: first stage {coef!r} "
                f"!= treatment-minus-control mean position {ref!r}")
        # direction +1 means the item rises under treatment: position falls
        expected = {1: "negative", -1: "positive"}[direction[item]]
        require(cls in ("null", expected),
                f"{campaign_label(item)}: classified {cls}, truth says {expected}")


def check_report(path, clean: dict) -> None:
    unhash = item_of_hash(clean["item"])
    got = read_columns(path)
    coefs = {(unhash[int(h)], spec): float(c)
             for h, spec, c in zip(got["item_id"], got["spec"], got["coef"])}
    require(len(coefs) == 3 * len(unhash), f"report has {len(coefs)} item-spec rows")
    for item, d in _by_item(clean):
        y, pos, rel, t = d["outcome"], d["position"], d["relevance"], d["treated"]
        const = np.ones_like(y)
        refs = {
            "spec1": _diff_in_means(y, t) / _diff_in_means(pos, t),
            "spec2": two_stage(y, pos, t.astype(float), np.column_stack([rel, const]))[0],
            "spec3": lstsq(np.column_stack([pos, rel, const]), y)[0],
        }
        for spec, ref in refs.items():
            coef, ref = coefs[(item, spec)], float(ref)
            require(close(coef, ref),
                    f"{campaign_label(item)} {spec}: coef {coef!r} != reference {ref!r}")


def check_load_counts(rows: int, dropped: int, duplicates: int, clean: dict) -> None:
    expected = len(clean["item"]) + N_DUPLICATES
    require((rows, dropped, duplicates) == (expected, N_MALFORMED, N_DUPLICATES),
            f"load kept/dropped/duplicate {rows}/{dropped}/{duplicates}, "
            f"injected {expected}/{N_MALFORMED}/{N_DUPLICATES}")


# -- recovery-mc ------------------------------------------------------------

def check_recovery(iv: list[float], ols: list[float], true_slope: float) -> None:
    def mean_and_se(values):
        values = np.array(values)
        return float(values.mean()), float(values.std(ddof=1) / np.sqrt(len(values)))

    iv_mean, iv_se = mean_and_se(iv)
    ols_mean, ols_se = mean_and_se(ols)
    require(abs(iv_mean - true_slope) <= TRUTH_SES * iv_se,
            f"mean 2SLS {iv_mean!r} is more than {TRUTH_SES} SEs ({iv_se!r}) "
            f"from the true slope {true_slope!r}")
    require(abs(ols_mean - true_slope) > TRUTH_SES * ols_se,
            f"mean OLS {ols_mean!r} is within {TRUTH_SES} SEs of the truth: no bias shown")
