#!/usr/bin/env python3
"""Ground-truth recovery study: OLS vs 2SLS across confounding strengths.

For each confounding level, simulates marketplace data with a known position
slope, fits the instrumented and naive models on the same one-row-per-request
design, and prints bias and RMSE over seeds.
"""

import argparse
import warnings

import numpy as np

from posiv.estimator import fit_2sls, fit_ols
from posiv.prepare import build_design, sample_one_per_request
from posiv.simulator import SimConfig, simulate
from posiv.specs import get_spec


def run(n_seeds: int, n_users: int, true_slope: float) -> None:
    spec5 = get_spec("spec5")
    print(f"true slope {true_slope}; {n_seeds} seeds x {n_users} users")
    print(f"{'confound':>9} {'2SLS mean':>10} {'2SLS rmse':>10} "
          f"{'OLS mean':>10} {'OLS rmse':>10} {'minF':>8}")
    for confound in (-0.5, 0.0, 0.25, 0.5):
        iv_est, ols_est, min_f = [], [], np.inf
        for seed in range(n_seeds):
            cfg = SimConfig(
                n_users=n_users, n_items=100, requests_per_user=1,
                slots_per_request=6, effect_slope_mean=true_slope,
                effect_slope_sd=0.0, confound_strength=confound,
                instrument_strength=0.8, instrument_share_negative=0.5,
                base_rate=0.5, marketplace_mode="pymk", n_reasons=22, seed=seed,
            )
            ds, truth = simulate(cfg)
            if truth.clip_rate > 0.01:
                raise SystemExit(f"clip rate {truth.clip_rate:.3f} too high")
            design = build_design(sample_one_per_request(ds, seed), spec5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = fit_2sls(design)
                iv_est.append(fit.coefficient("position"))
                ols_est.append(fit_ols(design).coefficient("position"))
                min_f = min(min_f, min(fit.first_stage_f.values()))
        iv, ols = np.array(iv_est), np.array(ols_est)
        print(
            f"{confound:>9.2f} {iv.mean():>10.4f} "
            f"{np.sqrt(((iv - true_slope) ** 2).mean()):>10.4f} "
            f"{ols.mean():>10.4f} "
            f"{np.sqrt(((ols - true_slope) ** 2).mean()):>10.4f} {min_f:>8.0f}"
        )


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--users", type=int, default=10_000)
    ap.add_argument("--slope", type=float, default=-0.04)
    args = ap.parse_args()
    run(args.seeds, args.users, args.slope)
