"""Moderate-size Monte Carlo checks of estimator behavior on simulated data.

All seeds are fixed; thresholds were verified against larger runs before
being frozen here.
"""

import warnings

from posiv.estimator import aggregate_effect, first_stage, fit_2sls
from posiv.prepare import build_design, slice_by_item, top_items
from posiv.simulator import SimConfig, ground_truth_tau, simulate
from posiv.specs import get_spec

SPEC1, SPEC4 = get_spec("spec1"), get_spec("spec4")


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


def test_aggregate_effect_covers_ground_truth_with_heterogeneous_slopes():
    hits = 0
    n_seeds = 20
    for seed in range(n_seeds):
        cfg = SimConfig(
            n_users=8000, n_items=40, requests_per_user=1, slots_per_request=8,
            effect_slope_mean=-0.04, effect_slope_sd=0.012, confound_strength=0.5,
            instrument_strength=0.8, instrument_share_negative=0.5,
            base_rate=0.6, marketplace_mode="pymk", n_reasons=22, seed=100 + seed,
        )
        ds, truth = simulate(cfg)
        slopes = [_quiet(fit_2sls, build_design(slice_by_item(ds, item), SPEC4)).coefficient(
            "position") for item in sorted(top_items(ds, 25))]  # in ascending item id
        effect = aggregate_effect(slopes, k1=5, k2=1)
        if abs(effect.tau_hat - ground_truth_tau(truth, 5, 1)) <= 3.0 * effect.se:
            hits += 1
    assert hits >= 19


def test_first_stage_classification_shares_are_mixed_sign():
    # a strong instrument with mixed per-item directions produces both
    # negative and positive first stages; weakening it grows the null band
    def shares(strength):
        counts = {"negative": 0, "null": 0, "positive": 0}
        for seed in range(4):
            cfg = SimConfig(
                n_users=4000, n_items=30, requests_per_user=1, slots_per_request=6,
                effect_slope_mean=-0.01, effect_slope_sd=0.0, confound_strength=0.1,
                instrument_strength=strength, instrument_share_negative=0.47,
                base_rate=0.2, marketplace_mode="ads", seed=seed,
            )
            ds, _ = simulate(cfg)
            for item in top_items(ds, 30):
                design = build_design(slice_by_item(ds, item), SPEC1)
                counts[first_stage(design).equation("position").classification] += 1
        total = sum(counts.values())
        return {k: v / total for k, v in counts.items()}

    strong = shares(0.12)
    assert 0.30 <= strong["negative"] <= 0.60
    assert strong["positive"] > 0.0
    assert strong["null"] < 0.35

    weak = shares(0.04)
    assert weak["null"] > strong["null"]
    assert weak["negative"] > 0.0 and weak["positive"] > 0.0


def test_per_item_first_stage_direction_tracks_truth():
    cfg = SimConfig(
        n_users=6000, n_items=20, requests_per_user=1, slots_per_request=6,
        effect_slope_mean=-0.01, effect_slope_sd=0.0, confound_strength=0.1,
        instrument_strength=0.5, instrument_share_negative=0.5,
        base_rate=0.2, marketplace_mode="ads", seed=9,
    )
    ds, truth = simulate(cfg)
    agree = 0
    classified = 0
    for item in top_items(ds, 20):
        design = build_design(slice_by_item(ds, item), SPEC1)
        eq = first_stage(design).equation("position")
        if eq.classification == "null":
            continue
        classified += 1
        # direction +1 means the item rises under treatment: negative
        # first-stage coefficient on position
        expected = "negative" if truth.item_direction[item - 1] > 0 else "positive"
        agree += eq.classification == expected
    assert classified >= 15
    assert agree == classified
