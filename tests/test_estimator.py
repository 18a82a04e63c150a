"""Estimator tests: every fitting path is checked against an independent
oracle (explicit pseudo-inverse, Wald ratio, double-loop cluster sums)."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

from posiv import estimator, tails
from posiv.cli import main
from posiv.datamodel import write_dataset
from posiv.errors import (
    Collinear,
    EmptyInput,
    NotJustIdentified,
    TooFewClusters,
    Underdetermined,
    Underidentified,
    WeakInstrumentWarning,
    ZeroFirstStage,
)
from posiv.estimator import (
    FirstStageReport,
    FitResult,
    aggregate_effect,
    cluster_cov,
    first_stage,
    fit_2sls,
    fit_ils,
    fit_ols,
    significance_stars,
    stacked_stars,
)
from posiv.prepare import build_design, slice_by_item, top_items
from posiv.simulator import SimConfig, simulate
from posiv.specs import ModelSpec, get_spec

from conftest import make_design, projected_collinear


def _rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------- OLS


def test_ols_exact_fit_zero_se():
    rng = np.random.default_rng(0)
    w = rng.normal(size=40)
    d = make_design(2.0 * w, w, [], [], clusters=np.arange(40) % 7)
    fit = fit_ols(d)
    assert abs(fit.coefficient("w0") - 2.0) < 1e-10
    assert fit.se_of("w0") < 1e-12
    assert fit.resid_std_error < 1e-12


def test_ols_matches_pseudo_inverse_oracle():
    # 10-row fixture checked against an explicit pinv solve
    rng = np.random.default_rng(1)
    w = rng.normal(size=10)
    x = rng.normal(size=10)
    y = 0.5 + 1.5 * w - 2.0 * x + rng.normal(size=10) * 0.1
    d = make_design(y, w, [], x, clusters=np.arange(10))
    fit = fit_ols(d)

    m = np.column_stack([w, x, np.ones(10)])
    oracle = np.linalg.pinv(m) @ y
    for got, want in zip(fit.coef, oracle):
        assert _rel_err(got, want) < 1e-10


def test_underdetermined_design_rejected():
    d = make_design([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [], [], clusters=[1, 2])
    with pytest.raises(Underdetermined, match="2 rows for 3 design columns"):
        fit_ols(d)


def test_ols_collinear():
    rng = np.random.default_rng(2)
    w = rng.normal(size=30)
    d = make_design(rng.normal(size=30), np.column_stack([w, w]), [], [],
                    clusters=np.arange(30) % 5)
    with pytest.raises(Collinear):
        fit_ols(d)


# ---------------------------------------------------------------- 2SLS


def _wald_fixture(n=200, seed=3):
    rng = np.random.default_rng(seed)
    z = (np.arange(n) % 2).astype(float)
    confound = rng.normal(size=n)
    w = 1.0 - 0.8 * z + 0.5 * confound + rng.normal(size=n) * 0.3
    y = 0.2 - 0.6 * w + 0.9 * confound + rng.normal(size=n) * 0.2
    return y, w, z


def test_2sls_equals_wald_ratio_oracle():
    y, w, z = _wald_fixture()
    d = make_design(y, w, z, [], clusters=np.arange(len(y)) % 20)
    fit = fit_2sls(d)
    wald = (y[z == 1].mean() - y[z == 0].mean()) / (w[z == 1].mean() - w[z == 0].mean())
    assert _rel_err(fit.coefficient("w0"), wald) < 1e-10


def test_2sls_matches_projected_pinv_oracle():
    rng = np.random.default_rng(4)
    n = 120
    z = rng.normal(size=(n, 3))
    x = rng.normal(size=n)
    conf = rng.normal(size=n)
    w = z @ np.array([0.7, -0.4, 0.2]) + 0.5 * conf + rng.normal(size=n) * 0.4
    y = 1.0 - 0.8 * w + 0.3 * x + conf + rng.normal(size=n) * 0.3
    d = make_design(y, w, z, x, clusters=np.arange(n) % 15)
    fit = fit_2sls(d)

    p = np.column_stack([z, x, np.ones(n)])
    w_hat = p @ (np.linalg.pinv(p) @ w)
    m2 = np.column_stack([w_hat, x, np.ones(n)])
    oracle = np.linalg.pinv(m2) @ y
    for got, want in zip(fit.coef, oracle):
        assert _rel_err(got, want) < 1e-10


@pytest.mark.parametrize("fit, n_qr", [
    (fit_ols, 1),
    (fit_2sls, 2),  # [Z, X, W, y] once, then the k-row block of its R for the second stage
    (fit_ils, 2),
    (first_stage, 1),
])
def test_factorization_count(factorizations, fit, n_qr):
    """Each fit factors its n rows once, in one R-only QR of [regressors,
    right-hand sides]; every SVD is of a small square block of an R."""
    rng = np.random.default_rng(8)
    n = 200
    z = (rng.random(n) < 0.5).astype(float)
    w = 2.0 * z + rng.normal(size=n)
    y = 1.0 - 0.5 * w + rng.normal(size=n)
    d = make_design(y, w, z, rng.normal(size=n), clusters=np.arange(n) % 25)
    fit(d)
    assert len(factorizations["qr"]) == n_qr
    assert [shape[-2] for shape in factorizations["qr"]].count(n) == 1
    assert factorizations["svd"]
    assert all(shape[-2] == shape[-1] < n for shape in factorizations["svd"])


def test_2sls_collinear_projected_design():
    y, w, z, x = projected_collinear(np.random.default_rng(10), 240)
    d = make_design(y, w, z, x, clusters=np.arange(240) % 30)
    first_stage(d)
    fit_ols(d)
    with pytest.raises(Collinear, match="projected design matrix condition number"):
        fit_2sls(d)


def test_2sls_with_endogenous_in_instruments_equals_ols():
    rng = np.random.default_rng(5)
    n = 150
    w = rng.normal(size=n)
    x = rng.normal(size=n)
    y = 0.3 + 0.9 * w - 0.4 * x + rng.normal(size=n) * 0.5
    clusters = np.arange(n) % 12
    d_iv = make_design(y, w, w, x, clusters=clusters)  # W itself instruments W
    d_ols = make_design(y, w, [], x, clusters=clusters)
    f_iv = fit_2sls(d_iv)
    f_ols = fit_ols(d_ols)
    for a, b in zip(f_iv.coef, f_ols.coef):
        assert _rel_err(a, b) < 1e-10


def test_2sls_multi_endogenous_exact_recovery():
    # Structural outcome with two endogenous columns and no structural noise:
    # 2SLS must recover the coefficients exactly.
    rng = np.random.default_rng(6)
    n = 600
    reasons = rng.integers(0, 6, size=n)
    arm = rng.integers(0, 2, size=n).astype(float)
    z = np.column_stack([(arm == 1) & (reasons == r) for r in range(6)]).astype(float)
    shift = np.array([0.9, -0.7, 0.5, -0.3, 0.2, -0.8])
    pos = 3.0 + shift[reasons] * arm + rng.normal(size=n) * 0.8
    depth = 8.0 + 0.5 * shift[reasons] * arm + rng.normal(size=n) * 0.6
    y = 0.3 - 0.05 * pos + 0.02 * depth
    d = make_design(
        y, np.column_stack([pos, depth]), z, [],
        clusters=np.arange(n) % 40, w_names=("position", "session_depth"),
    )
    fit = fit_2sls(d)
    assert abs(fit.coefficient("position") + 0.05) < 1e-8
    assert abs(fit.coefficient("session_depth") - 0.02) < 1e-8
    assert abs(fit.coefficient("Constant") - 0.3) < 1e-8


def test_2sls_underidentified():
    rng = np.random.default_rng(7)
    n = 50
    w = rng.normal(size=(n, 2))
    z = rng.normal(size=n)
    d = make_design(rng.normal(size=n), w, z, [], clusters=np.arange(n))
    with pytest.raises(Underidentified, match="1 instruments for 2 endogenous columns"):
        fit_2sls(d)


def test_2sls_needs_an_endogenous_column_and_instruments():
    rng = np.random.default_rng(7)
    n = 50
    y, w, z = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
    with pytest.raises(Underidentified, match="no endogenous columns"):
        fit_2sls(make_design(y, [], z, w, clusters=np.arange(n)))
    with pytest.raises(Underidentified, match="0 instruments for 1 endogenous"):
        fit_2sls(make_design(y, w, [], [], clusters=np.arange(n)))
    with pytest.raises(Underidentified, match="no instruments"):
        first_stage(make_design(y, w, [], [], clusters=np.arange(n)))


def test_2sls_weak_instrument_warns_not_fatal():
    rng = np.random.default_rng(8)
    n = 300
    z = rng.normal(size=n)
    w = 0.02 * z + rng.normal(size=n)  # nearly irrelevant instrument
    y = 0.5 * w + rng.normal(size=n)
    d = make_design(y, w, z, [], clusters=np.arange(n) % 30)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_2sls(d)
    assert any(issubclass(c.category, WeakInstrumentWarning) for c in caught)
    assert fit.warnings
    assert min(fit.first_stage_f.values()) < 10.0


def test_2sls_r_squared_can_be_negative():
    # strong confounding pulls OLS far from the structural coefficient; the
    # IV fit then explains less variance than the outcome mean
    rng = np.random.default_rng(9)
    n = 4000
    conf = rng.normal(size=n)
    z = rng.normal(size=n)
    w = z + conf + rng.normal(size=n) * 0.3
    y = 0.0 * w - 1.0 * conf + rng.normal(size=n) * 0.2
    d = make_design(y, w, z, [], clusters=np.arange(n) % 100)
    fit = fit_2sls(d)
    assert fit.r_squared < 0.0
    assert abs(fit.coefficient("w0")) < 3 * fit.se_of("w0")


# ---------------------------------------------------------------- ILS


def test_ils_hand_computed_six_rows():
    z = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    w = z.copy()
    y = 3.0 * w
    d = make_design(y, w, z, [], clusters=[0, 0, 1, 1, 2, 2])
    fit = fit_ils(d)
    assert abs(fit.coefficient("w0") - 3.0) < 1e-10


def test_ils_equals_2sls_just_identified():
    y, w, z = _wald_fixture(seed=10)
    x = np.random.default_rng(11).normal(size=len(y))
    d = make_design(y, w, z, x, clusters=np.arange(len(y)) % 25)
    f_ils = fit_ils(d)
    f_2sls = fit_2sls(d)
    for a, b in zip(f_ils.coef, f_2sls.coef):
        assert _rel_err(a, b) < 1e-10
    np.testing.assert_allclose(f_ils.cov, f_2sls.cov, rtol=1e-10, atol=1e-15)


def test_ils_rejects_overidentified():
    rng = np.random.default_rng(12)
    n = 80
    z = rng.normal(size=(n, 2))
    w = z @ np.array([1.0, 0.5]) + rng.normal(size=n)
    d = make_design(rng.normal(size=n), w, z, [], clusters=np.arange(n) % 8)
    with pytest.raises(NotJustIdentified):
        fit_ils(d)


def test_ils_zero_first_stage():
    rng = np.random.default_rng(13)
    n = 400
    z = rng.normal(size=n)
    w = rng.normal(size=n)  # unrelated to z
    y = 0.5 * w + rng.normal(size=n)
    d = make_design(y, w, z, [], clusters=np.arange(n) % 40)
    with pytest.raises(ZeroFirstStage):
        fit_ils(d)


# ---------------------------------------------------------------- cluster covariance


def _cluster_oracle(m, resid, clusters):
    n, k = m.shape
    bread = np.linalg.inv(m.T @ m)
    meat = np.zeros((k, k))
    for g in np.unique(clusters):
        s = np.zeros(k)
        for i in range(n):
            if clusters[i] == g:
                s += m[i] * resid[i]
        meat += np.outer(s, s)
    n_groups = len(np.unique(clusters))
    scale = (n_groups / (n_groups - 1.0)) * ((n - 1.0) / (n - k))
    return bread @ meat @ bread * scale


def test_cluster_cov_matches_double_loop_oracle():
    rng = np.random.default_rng(14)
    n = 20
    m = np.column_stack([rng.normal(size=n), np.ones(n)])
    resid = rng.normal(size=n)
    clusters = np.repeat(np.arange(5), 4)
    cov, n_groups = cluster_cov(m, resid, clusters)
    assert n_groups == 5
    oracle = _cluster_oracle(m, resid, clusters)
    np.testing.assert_allclose(cov, oracle, rtol=1e-12, atol=1e-18)


def test_cluster_cov_singleton_clusters_equal_hc1():
    rng = np.random.default_rng(15)
    n = 60
    m = np.column_stack([rng.normal(size=n), rng.normal(size=n), np.ones(n)])
    resid = rng.normal(size=n)
    cov, n_groups = cluster_cov(m, resid, np.arange(n))
    assert n_groups == n
    bread = np.linalg.inv(m.T @ m)
    hc1 = bread @ (m * resid[:, None] ** 2).T @ m @ bread * (n / (n - m.shape[1]))
    np.testing.assert_allclose(cov, hc1, rtol=1e-12, atol=1e-18)


def test_cluster_cov_one_row_clusters_match_the_bincount_path():
    """When every matrix's clusters are its rows in row order, the scores are
    the cluster sums and no bincount is made. The covariance bytes equal the
    bincount path's, single and stacked, with a -0.0 score among them: a
    stack with one matrix whose last two rows share a cluster takes the
    bincount path for every matrix. On both paths, one call on two
    equations' residuals gives each equation the bytes of its own call."""
    rng = np.random.default_rng(16)
    b, n, k = 3, 30, 3
    m = rng.normal(size=(b, n, k))
    m[..., -1] = 1.0
    resid = rng.normal(size=(b, n, 2))
    resid[:, 4] = -0.0
    m[:, 7, 0], resid[:, 7] = 0.0, -1.5  # a -0.0 score from 0.0 * -1.5
    rows = np.tile(np.arange(n), (b, 1))
    merged = rows.copy()
    merged[-1, -1] = n - 2
    bread = estimator._Factorization([m], k, "regressor", estimator._raise_first).bread()
    g_fast, g_slow = np.full(b, n), np.array([n] * (b - 1) + [n - 1])

    def cov(u, clusters, n_groups):
        return estimator._cluster_cov([(m, u, clusters, n_groups)], bread, n_groups, np.full(b, n))

    fast, slow = cov(resid, rows, g_fast), cov(resid, merged, g_slow)
    assert fast.shape == slow.shape == (b, 2, k, k)
    assert fast[:-1].tobytes() == slow[:-1].tobytes()
    for j in range(2):
        assert fast[:, j].tobytes() == cov(resid[..., j:j + 1], rows, g_fast)[:, 0].tobytes()
        assert slow[:, j].tobytes() == cov(resid[..., j:j + 1], merged, g_slow)[:, 0].tobytes()
    for i in range(b - 1):
        single, g = cluster_cov(m[i], resid[i, :, 0], np.arange(n))
        assert g == n and single.tobytes() == slow[i, 0].tobytes()


def test_cluster_cov_too_few_clusters():
    m = np.ones((5, 1))
    with pytest.raises(TooFewClusters):
        cluster_cov(m, np.zeros(5), np.zeros(5))


def test_cluster_cov_checks_its_own_bread():
    rng = np.random.default_rng(16)
    with pytest.raises(Underdetermined, match="3 rows for 5 regressor columns"):
        cluster_cov(rng.normal(size=(3, 5)), rng.normal(size=3), np.arange(3))
    x = rng.normal(size=20)
    with pytest.raises(Collinear, match="regressor matrix condition number"):
        cluster_cov(np.column_stack([x, 2.0 * x]), rng.normal(size=20), np.arange(20) % 4)


def test_duplicating_clusters_leaves_coefficients_unchanged():
    rng = np.random.default_rng(16)
    n = 50
    w = rng.normal(size=n)
    y = 1.0 + 0.7 * w + rng.normal(size=n) * 0.3
    clusters = np.arange(n) % 10
    d1 = make_design(y, w, [], [], clusters=clusters)
    d2 = make_design(
        np.concatenate([y, y]), np.concatenate([w, w]), [], [],
        clusters=np.concatenate([clusters, clusters + 100]),
    )
    f1, f2 = fit_ols(d1), fit_ols(d2)
    for a, b in zip(f1.coef, f2.coef):
        assert _rel_err(a, b) < 1e-10


def test_covariance_symmetric_psd():
    y, w, z = _wald_fixture(seed=17)
    d = make_design(y, w, z, [], clusters=np.arange(len(y)) % 13)
    fit = fit_2sls(d)
    np.testing.assert_allclose(fit.cov, fit.cov.T, atol=1e-15)
    eigvals = np.linalg.eigvalsh(fit.cov)
    assert eigvals.min() > -1e-12
    assert np.isfinite(fit.se).all()


# ---------------------------------------------------------------- first stage


def test_first_stage_f_equals_t_squared_single_instrument():
    y, w, z = _wald_fixture(seed=18)
    d = make_design(y, w, z, [], clusters=np.arange(len(y)) % 21)
    eq = first_stage(d).equation("w0")
    t = eq.coef[0] / eq.se[0]
    assert _rel_err(eq.f_stat, t * t) < 1e-10


def test_first_stage_classification():
    rng = np.random.default_rng(19)
    n = 500
    z = (np.arange(n) % 2).astype(float)
    clusters = np.arange(n) % 50
    for slope, expected in ((-0.8, "negative"), (0.0, "null"), (0.8, "positive")):
        w = slope * z + rng.normal(size=n) * 0.5
        y = rng.normal(size=n)
        d = make_design(y, w, z, [], clusters=clusters)
        assert first_stage(d).equation("w0").classification == expected


# ---------------------------------------------------------------- stacked by item


ILS = ModelSpec("ils", "edge", "outcome", ("position",), "arm", (), method="ILS")


@pytest.fixture(scope="module")
def items_log():
    ds, _ = simulate(SimConfig(
        n_users=600, n_items=8, requests_per_user=1, slots_per_request=5,
        instrument_strength=0.8, marketplace_mode="ads", seed=5,
    ))
    return slice_by_item(ds, top_items(ds, 8))


class _CountingTails:
    """posiv.tails as the estimator sees it, counting each call by name."""

    def __init__(self, counts: Counter):
        self.counts = counts

    def __getattr__(self, name):
        def counted(*args, _real=getattr(tails, name), **kwargs):
            self.counts[name] += 1
            return _real(*args, **kwargs)

        return counted


def _counting(cls, counts: Counter):
    """A subclass of cls that counts its instances in counts."""

    class Counted(cls):
        def __init__(self, *args, **kwargs):
            counts[cls.__name__] += 1
            super().__init__(*args, **kwargs)

    return Counted


def _n_parts(design) -> int:
    """The row-count parts the stacked fits cut the design into."""
    return sum(len(stack.sizes) for stack in estimator._stacks(design, []))


@pytest.fixture
def result_work(monkeypatch):
    """Result objects the estimator builds and the tails it calls (stdtr,
    fdtrc, stdtrit), counted by name while a test runs."""
    counts = Counter()
    for name in ("FitResult", "FirstStageReport", "FirstStageEquation"):
        monkeypatch.setattr(estimator, name, _counting(getattr(estimator, name), counts))
    monkeypatch.setattr(estimator, "tails", _CountingTails(counts))
    return counts


@pytest.mark.parametrize("fit, spec", [(fit_ols, get_spec("spec3")), (fit_2sls, get_spec("spec1")),
                                       (fit_ils, ILS), (first_stage, get_spec("spec1"))])
def test_a_stacked_fit_builds_no_result_until_an_item_is_indexed(items_log, result_work, fit,
                                                                  spec):
    """A stacked fit returns columns: no FitResult, FirstStageReport or
    FirstStageEquation is built and no p-value computed until an item is
    indexed; then one item's object and one tail call over its numbers."""
    design = build_design(items_log, spec, by_item=True)
    assert _n_parts(design) > 1  # several row counts
    results = fit(design)
    assert len(results) == len(design.items.labels)
    fitted = [g for g, error in enumerate(results.errors) if error is None]
    assert len(fitted) >= 6
    # first_stage's CI critical values: one stdtrit call over every fitted item
    assert result_work == ({"stdtrit": 1} if fit is first_stage else {})
    result_work.clear()
    item = results[fitted[-1]]
    if fit is first_stage:
        assert isinstance(item, FirstStageReport)
        assert result_work == {"FirstStageReport": 1, "FirstStageEquation": 1, "fdtrc": 1}
    else:
        assert isinstance(item, FitResult) and item.label == design.items.labels[fitted[-1]]
        assert result_work == {"FitResult": 1, "stdtr": 1}


@pytest.mark.parametrize("fit, spec", [(fit_2sls, get_spec("spec1")), (fit_ils, ILS)])
def test_stacked_iv_fits_build_no_first_stage_reports(items_log, result_work, fit, spec):
    """2SLS and ILS read the first-stage F as a column: neither the fit nor
    any item's FitResult builds a first-stage report or computes an F
    p-value or CI; first_stage() builds a report per indexed item."""
    design = build_design(items_log, spec, by_item=True)
    results = fit(design)
    fitted = [results[g] for g, error in enumerate(results.errors) if error is None]
    assert len(fitted) >= 6 and all(isinstance(f, FitResult) for f in fitted)
    assert result_work == {"FitResult": len(fitted), "stdtr": len(fitted)}

    result_work.clear()
    reports = first_stage(design)
    assert [g for g, error in enumerate(reports.errors) if error is None] == \
        [g for g, error in enumerate(results.errors) if error is None]
    # every CI's critical value from one call for the whole design, not one per part
    assert _n_parts(design) > 1
    assert result_work == {"stdtrit": 1}
    assert sum(isinstance(r, FirstStageReport) for r in reports) == len(fitted)
    assert result_work["FirstStageReport"] == result_work["FirstStageEquation"] == len(fitted)


@pytest.mark.parametrize("fit, spec", [(fit_ols, get_spec("spec3")),
                                       (fit_2sls, get_spec("spec1")), (fit_ils, ILS)])
def test_a_stacked_fit_makes_one_stdtr_call(items_log, result_work, fit, spec):
    """A stacked fit makes no stdtr call; each item's p-values, in any
    row-count part, come from one stdtr call when its FitResult is built."""
    design = build_design(items_log, spec, by_item=True)
    assert _n_parts(design) > 1
    results = fit(design)
    assert result_work == {}
    fitted = 0
    for g, error in enumerate(results.errors):
        if error is None:
            assert np.isfinite(results[g].p_value).all()
            fitted += 1
            assert result_work == {"FitResult": fitted, "stdtr": fitted}
    assert fitted >= 6


def test_cli_report_and_diagnose_read_columns(items_log, result_work, tmp_path, capsys):
    """report writes its effects from the fits' columns, with no result
    object and no stdtr call; diagnose builds no report, makes no fdtrc call
    and one stdtrit call for every CI."""
    data = tmp_path / "items.csv"
    write_dataset(items_log, str(data))
    assert main(["report", str(data), "--specs", "spec1,spec2,spec3", "--top-n", "8",
                 "--out", str(tmp_path / "rep")]) == 0
    assert result_work == {}
    assert main(["diagnose", str(data), "--top-n", "8", "--out", str(tmp_path / "diag")]) == 0
    assert result_work == {"stdtrit": 1}
    assert "failed items: 0 of 8" in capsys.readouterr().out


# ---------------------------------------------------------------- invariances


def test_row_permutation_invariance():
    rng = np.random.default_rng(20)
    y, w, z = _wald_fixture(seed=21)
    x = rng.normal(size=len(y))
    clusters = np.arange(len(y)) % 19
    perm = rng.permutation(len(y))
    d1 = make_design(y, w, z, x, clusters=clusters)
    d2 = make_design(y[perm], w[perm], z[perm], x[perm], clusters=clusters[perm])
    f1, f2 = fit_2sls(d1), fit_2sls(d2)
    for a, b in zip(f1.coef, f2.coef):
        assert _rel_err(a, b) < 1e-10
    for a, b in zip(f1.se, f2.se):
        assert _rel_err(a, b) < 1e-10


def test_control_affine_rescale():
    rng = np.random.default_rng(22)
    y, w, z = _wald_fixture(seed=23)
    x = rng.normal(size=len(y))
    clusters = np.arange(len(y)) % 11
    a, b = 3.5, -2.0
    d1 = make_design(y, w, z, x, clusters=clusters)
    d2 = make_design(y, w, z, a * x + b, clusters=clusters)
    f1, f2 = fit_2sls(d1), fit_2sls(d2)
    assert _rel_err(f1.coefficient("w0"), f2.coefficient("w0")) < 1e-10
    assert _rel_err(f1.coefficient("x0"), a * f2.coefficient("x0")) < 1e-10
    # identical fitted values => identical structural residuals => same rse
    assert _rel_err(f1.resid_std_error, f2.resid_std_error) < 1e-10


# ---------------------------------------------------------------- aggregation


def test_aggregate_effect_single_item():
    eff = aggregate_effect([-0.04], k1=3, k2=2)
    assert eff.se is None
    assert eff.n_items == 1
    assert abs(eff.tau_hat - (-0.04) * (2 - 3)) < 1e-10


def test_aggregate_effect_equal_slopes_zero_se():
    eff = aggregate_effect([-0.05] * 4, k1=5, k2=1)
    assert eff.se == 0.0
    assert abs(eff.tau_hat - (-0.05) * (1 - 5)) < 1e-10


def test_aggregate_effect_mixed_slopes_matches_arithmetic():
    eff = aggregate_effect([-0.02, -0.06], k1=5, k2=1)
    assert abs(eff.tau_hat - 0.16) < 1e-10


def test_aggregate_effect_empty():
    with pytest.raises(EmptyInput):
        aggregate_effect([], 2, 1)


# ---------------------------------------------------------------- stars


def test_significance_star_thresholds_are_strict():
    assert significance_stars(0.049999) == "**"
    assert significance_stars(0.05) == "*"
    assert significance_stars(0.0099999) == "***"
    assert significance_stars(0.01) == "**"
    assert significance_stars(0.099999) == "*"
    assert significance_stars(0.1) == ""
    assert significance_stars(math.nan) == significance_stars(None) == ""
    cuts = np.array([0.01, 0.05, 0.1])
    p = np.concatenate([[math.nan, 0.0, 1.0], cuts, np.nextafter(cuts, 0.0),
                        np.nextafter(cuts, 1.0)])
    want = ["", "***", "", "**", "*", "", "***", "**", "*", "**", "*", ""]
    assert [significance_stars(v) for v in p.tolist()] == want
    assert stacked_stars(p.reshape(3, 4)).tolist() == [want[:4], want[4:8], want[8:]]
