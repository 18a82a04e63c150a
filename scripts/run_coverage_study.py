#!/usr/bin/env python3
"""Coverage study for the CR1 cluster-robust confidence intervals.

Replicates simulation + estimation many times and reports how often the
nominal 95% interval (t critical value on G-1 degrees of freedom) covers the
true position slope.
"""

import argparse
import warnings

from posiv.estimator import fit_2sls
from posiv.prepare import build_design, sample_one_per_request
from posiv.simulator import SimConfig, simulate
from posiv.specs import get_spec
from posiv.tails import stdtrit


def run(reps: int, n_users: int, requests: int, true_slope: float) -> None:
    spec5 = get_spec("spec5")
    covered = 0
    for seed in range(reps):
        cfg = SimConfig(
            n_users=n_users, n_items=60, requests_per_user=requests,
            slots_per_request=5, effect_slope_mean=true_slope,
            effect_slope_sd=0.0, confound_strength=0.5,
            instrument_strength=0.8, instrument_share_negative=0.5,
            base_rate=0.5, marketplace_mode="pymk", n_reasons=22,
            seed=10_000 + seed,
        )
        ds, _ = simulate(cfg)
        design = build_design(sample_one_per_request(ds, seed), spec5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_2sls(design)
        tcrit = float(stdtrit(fit.n_clusters - 1, 0.975))
        if abs(fit.coefficient("position") - true_slope) <= tcrit * fit.se_of("position"):
            covered += 1
        if (seed + 1) % 50 == 0:
            print(f"  {seed + 1}/{reps}: running coverage {covered / (seed + 1):.3f}")
    print(f"coverage {covered}/{reps} = {covered / reps:.3f} (nominal 0.95)")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--users", type=int, default=2000)
    ap.add_argument("--requests", type=int, default=5)
    ap.add_argument("--slope", type=float, default=-0.04)
    args = ap.parse_args()
    run(args.reps, args.users, args.requests, args.slope)
