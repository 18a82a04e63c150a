"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to watch). Heavy
simulation batches are shared across criteria through module-scoped
fixtures; all seeds are fixed, so results are deterministic.
"""

import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from posiv.datamodel import EDGE_SCHEMA, Dataset
from posiv.errors import ConstantColumn, ZeroFirstStage
from posiv.estimator import (
    cluster_cov,
    fit_2sls,
    fit_ils,
    fit_ols,
    significance_stars,
)
from posiv.prepare import (
    aggregate_sessions,
    build_design,
    sample_one_per_request,
    slice_by_item,
    top_items,
)
from posiv.simulator import SimConfig, simulate
from posiv.specs import ModelSpec, get_spec
from posiv.tables import render_table

from conftest import edge_columns, make_design

GOLDEN_TABLE = Path(__file__).parent / "data" / "golden_table.txt"

SPEC4, SPEC5 = get_spec("spec4"), get_spec("spec5")
OLS_POSITION_ONLY = ModelSpec(
    "ols-position", "edge", "outcome", (), "none", ("position",), method="OLS"
)

TRUE_SLOPE = -0.04

RECOVERY_CFG = dict(
    n_users=50_000, n_items=100, requests_per_user=1, slots_per_request=10,
    effect_slope_mean=TRUE_SLOPE, effect_slope_sd=0.0, confound_strength=0.5,
    instrument_strength=0.8, instrument_share_negative=0.5,
    base_rate=0.62, marketplace_mode="pymk", n_reasons=22,
)

FLIPPED_CFG = dict(
    n_users=10_000, n_items=100, requests_per_user=1, slots_per_request=4,
    effect_slope_mean=TRUE_SLOPE, effect_slope_sd=0.0, confound_strength=-0.5,
    instrument_strength=0.8, instrument_share_negative=0.5,
    base_rate=0.45, marketplace_mode="pymk", n_reasons=22,
)


def _quiet_fit(fn, design):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(design)


@pytest.fixture(scope="module")
def recovery_runs():
    """100 seeds of the headline config: spec5 2SLS and OLS on the same design."""
    runs = []
    for seed in range(100):
        t0 = time.time()
        ds, truth = simulate(SimConfig(seed=seed, **RECOVERY_CFG))
        assert truth.clip_rate < 0.01
        sampled = sample_one_per_request(ds, seed=seed)
        design = build_design(sampled, SPEC5)
        iv = _quiet_fit(fit_2sls, design)
        ols = _quiet_fit(fit_ols, design)
        runs.append(
            {
                "iv_coef": iv.coefficient("position"),
                "iv_se": iv.se_of("position"),
                "ols_coef": ols.coefficient("position"),
                "min_f": min(iv.first_stage_f.values()),
                "seconds": time.time() - t0,
            }
        )
    return runs


@pytest.fixture(scope="module")
def flipped_runs():
    """100 seeds with the confounding direction flipped (slots=4 variant)."""
    runs = []
    for seed in range(100):
        ds, truth = simulate(SimConfig(seed=seed, **FLIPPED_CFG))
        assert truth.clip_rate < 0.01
        sampled = sample_one_per_request(ds, seed=seed)
        iv4 = _quiet_fit(fit_2sls, build_design(sampled, SPEC4))
        iv5 = _quiet_fit(fit_2sls, build_design(sampled, SPEC5))
        ols = _quiet_fit(fit_ols, build_design(sampled, OLS_POSITION_ONLY))
        runs.append(
            {
                "iv4_coef": iv4.coefficient("position"),
                "iv4_se": iv4.se_of("position"),
                "iv4_r2": iv4.r_squared,
                "iv5_coef": iv5.coefficient("position"),
                "iv5_se": iv5.se_of("position"),
                "iv5_r2": iv5.r_squared,
                "ols_coef": ols.coefficient("position"),
            }
        )
    return runs


def test_criterion_1_ground_truth_recovery(recovery_runs):
    hits = sum(
        abs(r["iv_coef"] - TRUE_SLOPE) <= 3.0 * r["iv_se"] for r in recovery_runs
    )
    worst_f = min(r["min_f"] for r in recovery_runs)
    worst_t = max(r["seconds"] for r in recovery_runs)
    ok = hits >= 94 and worst_f > 50.0 and worst_t < 60.0
    print(
        f"ACCEPTANCE 1 ground-truth recovery: {'PASS' if ok else 'FAIL'} "
        f"({hits}/100 within 3 SE of {TRUE_SLOPE}; min first-stage F {worst_f:.0f}; "
        f"max {worst_t:.1f}s/seed)"
    )
    assert hits >= 94
    assert worst_f > 50.0
    assert worst_t < 60.0


def test_criterion_2_ols_bias_and_sign_flip(recovery_runs, flipped_runs):
    bias_wins = sum(
        abs(r["ols_coef"] - TRUE_SLOPE) > abs(r["iv_coef"] - TRUE_SLOPE)
        for r in recovery_runs
    )
    flips = sum(
        r["ols_coef"] > 0.0 and r["iv4_coef"] < 0.0 for r in flipped_runs
    )
    ok = bias_wins >= 95 and flips >= 90
    print(
        f"ACCEPTANCE 2 OLS bias demonstration: {'PASS' if ok else 'FAIL'} "
        f"(|OLS-truth|>|2SLS-truth| in {bias_wins}/100; "
        f"sign flip under reversed confounding in {flips}/100)"
    )
    assert bias_wins >= 95
    assert flips >= 90


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(33)

    # Wald ratio on a just-identified 200-row fixture
    n = 200
    z = (np.arange(n) % 2).astype(float)
    conf = rng.normal(size=n)
    w = 1.0 - 0.8 * z + 0.5 * conf + rng.normal(size=n) * 0.3
    y = 0.2 - 0.6 * w + 0.9 * conf + rng.normal(size=n) * 0.2
    d = make_design(y, w, z, [], clusters=np.arange(n) % 20)
    two = fit_2sls(d)
    wald = (y[z == 1].mean() - y[z == 0].mean()) / (w[z == 1].mean() - w[z == 0].mean())
    err_wald = abs(two.coefficient("w0") - wald) / abs(wald)

    # projected pseudo-inverse oracle on the same design
    p = np.column_stack([z, np.ones(n)])
    w_hat = p @ (np.linalg.pinv(p) @ w)
    m2 = np.column_stack([w_hat, np.ones(n)])
    beta_proj = (np.linalg.pinv(m2) @ y)[0]
    err_proj = abs(two.coefficient("w0") - beta_proj) / abs(beta_proj)

    # ILS identity
    ils = fit_ils(d)
    err_ils = abs(ils.coefficient("w0") - two.coefficient("w0")) / abs(two.coefficient("w0"))

    # OLS pseudo-inverse oracle
    x = rng.normal(size=n)
    y2 = 0.4 + 1.2 * w - 0.7 * x + rng.normal(size=n) * 0.25
    d_ols = make_design(y2, w, [], x, clusters=np.arange(n) % 20)
    ols = fit_ols(d_ols)
    oracle = np.linalg.pinv(np.column_stack([w, x, np.ones(n)])) @ y2
    err_ols = max(
        abs(a - b) / max(abs(b), 1e-300) for a, b in zip(ols.coef, oracle)
    )

    # cluster sandwich versus the double-loop summation oracle
    m = np.column_stack([rng.normal(size=20), np.ones(20)])
    resid = rng.normal(size=20)
    clusters = np.repeat(np.arange(5), 4)
    cov, n_groups = cluster_cov(m, resid, clusters)
    bread = np.linalg.inv(m.T @ m)
    meat = np.zeros((2, 2))
    for g in range(5):
        s = np.zeros(2)
        for i in range(20):
            if clusters[i] == g:
                s += m[i] * resid[i]
        meat += np.outer(s, s)
    oracle_cov = bread @ meat @ bread * (5 / 4.0) * (19.0 / 18.0)
    err_cov = np.max(np.abs(cov - oracle_cov) / np.maximum(np.abs(oracle_cov), 1e-300))

    ok = (
        err_wald < 1e-10 and err_proj < 1e-10 and err_ils < 1e-10
        and err_ols < 1e-10 and err_cov < 1e-12
    )
    print(
        f"ACCEPTANCE 3 oracle equivalence: {'PASS' if ok else 'FAIL'} "
        f"(wald {err_wald:.1e}, projected-pinv {err_proj:.1e}, ils {err_ils:.1e}, "
        f"ols-pinv {err_ols:.1e}, cluster-cov {err_cov:.1e})"
    )
    assert err_wald < 1e-10
    assert err_proj < 1e-10
    assert err_ils < 1e-10
    assert err_ols < 1e-10
    assert err_cov < 1e-12


def test_criterion_4_confidence_interval_coverage():
    from scipy import stats as sstats

    cfg = dict(
        n_users=2000, n_items=60, requests_per_user=5, slots_per_request=5,
        effect_slope_mean=TRUE_SLOPE, effect_slope_sd=0.0, confound_strength=0.5,
        instrument_strength=0.8, instrument_share_negative=0.5,
        base_rate=0.5, marketplace_mode="pymk", n_reasons=22,
    )
    t0 = time.time()
    covered = 0
    for seed in range(500):
        ds, _ = simulate(SimConfig(seed=10_000 + seed, **cfg))
        sampled = sample_one_per_request(ds, seed=seed)
        fit = _quiet_fit(fit_2sls, build_design(sampled, SPEC5))
        tcrit = sstats.t.ppf(0.975, fit.n_clusters - 1)
        c, se = fit.coefficient("position"), fit.se_of("position")
        if abs(c - TRUE_SLOPE) <= tcrit * se:
            covered += 1
    minutes = (time.time() - t0) / 60.0
    ok = 465 <= covered <= 485 and minutes < 10.0
    print(
        f"ACCEPTANCE 4 CI coverage: {'PASS' if ok else 'FAIL'} "
        f"({covered}/500 = {covered / 5:.1f}% in [93%, 97%]; {minutes:.1f} min)"
    )
    assert 465 <= covered <= 485
    assert minutes < 10.0


def test_criterion_5_structural_invariants():
    # one click per request on a million ads rows
    cfg = SimConfig(
        n_users=125_000, n_items=100, requests_per_user=1, slots_per_request=8,
        effect_slope_mean=-0.005, effect_slope_sd=0.002, confound_strength=0.1,
        instrument_strength=0.5, instrument_share_negative=0.5,
        base_rate=0.2, marketplace_mode="ads", seed=55,
    )
    ds, _ = simulate(cfg)
    assert ds.n_rows == 1_000_000
    _, inverse = np.unique(ds.column("request_id"), return_inverse=True)
    clicks = np.bincount(inverse, weights=ds.column("outcome").astype(float))
    one_click = clicks.max() <= 1.0

    # exact-uniform selection across 1000 enumerated seeds
    tiny = Dataset(edge_columns([(1, 1, i, i, 0) for i in (1, 2, 3)]), EDGE_SCHEMA)
    counts = {1: 0, 2: 0, 3: 0}
    unique_ok = True
    for seed in range(1000):
        kept = sample_one_per_request(tiny, seed)
        counts[int(kept.column("item_id")[0])] += 1
    uniform_ok = all(267 <= c <= 400 for c in counts.values())

    # sampled outputs have unique request ids on a large dataset
    sampled = sample_one_per_request(ds, seed=0)
    req = sampled.column("request_id")
    unique_ok = len(np.unique(req)) == len(req) == 125_000

    # session aggregation conserves outcomes exactly
    pymk, _ = simulate(SimConfig(
        n_users=3000, n_items=40, requests_per_user=2, slots_per_request=6,
        base_rate=0.55, marketplace_mode="pymk", seed=56,
    ))
    sess = aggregate_sessions(pymk, top_cut=4)
    conserve_ok = (
        int(sess.column("invite_total").sum()) == int(pymk.column("outcome").sum())
        and int((sess.column("n_top_spot") + sess.column("n_bottom_spot")).sum())
        == pymk.n_rows
    )

    ok = one_click and uniform_ok and unique_ok and conserve_ok
    print(
        f"ACCEPTANCE 5 structural invariants: {'PASS' if ok else 'FAIL'} "
        f"(one-click on 1e6 rows: {one_click}; uniform counts {counts}; "
        f"unique request ids: {unique_ok}; conservation: {conserve_ok})"
    )
    assert one_click and uniform_ok and unique_ok and conserve_ok


def test_criterion_6_null_and_degenerate_cases():
    # zero effect slope -> estimate statistically indistinguishable from zero
    null_cfg = dict(
        n_users=5000, n_items=60, requests_per_user=1, slots_per_request=6,
        effect_slope_mean=0.0, effect_slope_sd=0.0, confound_strength=0.5,
        instrument_strength=0.8, instrument_share_negative=0.5,
        base_rate=0.55, marketplace_mode="pymk", n_reasons=22,
    )
    null_hits = 0
    for seed in range(100):
        ds, _ = simulate(SimConfig(seed=20_000 + seed, **null_cfg))
        sampled = sample_one_per_request(ds, seed=seed)
        fit = _quiet_fit(fit_2sls, build_design(sampled, SPEC5))
        if abs(fit.coefficient("position")) < 3.0 * fit.se_of("position"):
            null_hits += 1

    # zero instrument strength -> ZeroFirstStage or exploding SE, every seed
    weak_cfg = dict(
        n_users=2000, n_items=20, requests_per_user=2, slots_per_request=5,
        effect_slope_mean=-0.01, effect_slope_sd=0.0, confound_strength=0.1,
        instrument_strength=0.0, instrument_share_negative=0.5,
        base_rate=0.25, marketplace_mode="ads",
    )
    spec1 = get_spec("spec1")
    degenerate = 0
    for seed in range(100):
        ds, _ = simulate(SimConfig(seed=30_000 + seed, **weak_cfg))
        item = top_items(ds, 1)[0]
        design = build_design(slice_by_item(ds, item), spec1)
        try:
            fit = _quiet_fit(fit_ils, design)
            if fit.se_of("position") > 10.0 * abs(fit.coefficient("position")):
                degenerate += 1
        except ZeroFirstStage:
            degenerate += 1

    # constant instrument -> ConstantColumn
    rows = [(i, i, 1 + i % 2, 1 + i % 3, 0, "control", None, 0.5) for i in range(1, 40)]
    try:
        build_design(Dataset(edge_columns(rows), EDGE_SCHEMA), spec1)
        constant_ok = False
    except ConstantColumn:
        constant_ok = True

    ok = null_hits >= 94 and degenerate == 100 and constant_ok
    print(
        f"ACCEPTANCE 6 null and degenerate cases: {'PASS' if ok else 'FAIL'} "
        f"(null effect covered {null_hits}/100; zero-instrument degenerate "
        f"{degenerate}/100; constant instrument raises: {constant_ok})"
    )
    assert null_hits >= 94
    assert degenerate == 100
    assert constant_ok


def _golden_fit():
    from posiv.estimator import FitResult

    names = ("position", "relevance_score", "Constant")
    coef = np.array([-0.0007, 0.70, 0.0058])
    se = np.array([0.0003, 0.032, 0.002])
    p = np.array([0.02, 0.001, 0.011])
    return FitResult(
        method="2SLS", outcome="outcome", names=names, coef=coef,
        cov=np.diag(se**2), se=se, t_stat=coef / se, p_value=p,
        stars=tuple(significance_stars(v) for v in p), n_obs=402_358,
        n_clusters=120_000, df_resid=402_355, r_squared=0.002,
        resid_std_error=0.089,
    )


def test_criterion_7_rendering_fidelity():
    table = render_table([_golden_fit()])
    golden = GOLDEN_TABLE.read_text(encoding="utf-8")
    golden_ok = table == golden
    footer_ok = table.rstrip().endswith("*p<0.1; **p<0.05; ***p<0.01")
    lines = table.splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("position"))
    layout_ok = "-0.0007**" in lines[idx] and "(0.0003)" in lines[idx + 1]
    rows_ok = (
        any(l.startswith("Observations") and "402,358" in l for l in lines)
        and any(l.startswith("R2") for l in lines)
        and any(l.startswith("Residual Std. Error") and "(df = 402355)" in l for l in lines)
    )
    stars_ok = (
        significance_stars(0.049999) == "**"
        and significance_stars(0.05) == "*"
        and significance_stars(0.0099999) == "***"
        and significance_stars(0.01) == "**"
        and significance_stars(0.1) == ""
    )
    ok = golden_ok and footer_ok and layout_ok and rows_ok and stars_ok
    print(
        f"ACCEPTANCE 7 rendering fidelity: {'PASS' if ok else 'FAIL'} "
        f"(golden file: {golden_ok}; footer: {footer_ok}; layout: {layout_ok}; "
        f"stat rows: {rows_ok}; star thresholds: {stars_ok})"
    )
    assert ok


def test_criterion_8_negative_r_squared(flipped_runs):
    # 20 independent high-confounding runs; each must contain an IV fit
    # with negative R^2 whose coefficient still covers the truth
    runs = flipped_runs[:20]
    good = 0
    for r in runs:
        for prefix in ("iv4", "iv5"):
            if (
                r[f"{prefix}_r2"] < 0.0
                and abs(r[f"{prefix}_coef"] - TRUE_SLOPE) <= 3.0 * r[f"{prefix}_se"]
            ):
                good += 1
                break
    min_r2 = min(r["iv4_r2"] for r in runs)
    ok = good == len(runs)
    print(
        f"ACCEPTANCE 8 negative R2 reproduction: {'PASS' if ok else 'FAIL'} "
        f"({good}/{len(runs)} runs with R2<0 and coefficient within 3 SE; "
        f"most negative R2 {min_r2:.3f})"
    )
    assert good == len(runs)
