"""OLS, 2SLS, and ILS fitting with cluster-robust inference.

Numerics: each fit makes one R-only QR of the augmented matrix
A = [regressors M, right-hand sides] = QR and reads every stage from R;
normal equations are never formed to solve. For the leading k x k block R_11
(M has k columns), M'M = R_11'R_11, so an SVD of the small R_11 has the
singular values and right vectors of M. It gives the condition check (a
condition number at or above 1e12 raises Collinear), the solves
R_11 b = R_12 and the sandwich bread (M'M)^{-1} = V diag(1/s^2) V'. OLS
factors [W, X, y]. The first stage factors [Z, X, W, y], which gives the
first-stage coefficients and the reduced form of y at once; the second stage
of 2SLS and ILS factors only the k-row block of that R which holds
[W_hat, X, y] projected on [Z, X], so no n-row matrix is factored twice.

Covariance is the CR1 cluster sandwich:

    cov = (M'M)^{-1} [ sum_g (M_g' u_g)(M_g' u_g)' ] (M'M)^{-1}
          * (G/(G-1)) * ((N-1)/(N-k))

with t-tests against Student-t on G-1 degrees of freedom. For the IV fits,
M is the projected design [W_hat, X] while the residuals u are structural
(computed from the original W), which is also why the reported R-squared can
go negative: a coefficient pulled away from the OLS minimizer can fit worse
than the outcome mean, and that is expected behavior, not an error.

One stacked kernel does every fit. It works on (B, n, k) stacks of
same-shape designs: one np.linalg.qr call factors all B matrices, the
solves, breads and 1e12 checks run per matrix on the stack, and the cluster
score sums of all B come from one bincount. The kernel returns arrays; the
t and F tails (posiv.tails, in numpy) and the result objects are made once
per design, over every bucket's items together. A design stacked by item
(build_design(..., by_item=True)) is cut into shape buckets: the items with
the same row count and instrument count. There is no zero padding, and a
bucket builds only its own items' instrument columns, so each matrix LAPACK
factors is the one a fit of that item alone would factor, and a large item,
or one with arm levels of its own, costs memory only in its own bucket.

Each kernel is one fit over a fixed stack. A check that fails raises for the
items it flags; they report that EstimationError, and the bucket is fitted
again without them, once per failing check, so an item leaves at the first
check it fails and the others go on. A single design is the B = 1 case: one
bucket of one, where a failure raises.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from . import tails
from .errors import (
    Collinear,
    EmptyInput,
    EstimationError,
    NotJustIdentified,
    TooFewClusters,
    Underdetermined,
    Underidentified,
    WeakInstrumentWarning,
    ZeroFirstStage,
)
from .prepare import DesignMatrix

CONDITION_LIMIT = 1e12
WEAK_F_THRESHOLD = 10.0
# An ILS ratio is declared undefined when the first-stage t-statistic is
# below this; a coefficient statistically indistinguishable from zero cannot
# support a ratio estimate.
ILS_ZERO_T = 4.0


def stacked_stars(p: np.ndarray) -> np.ndarray:
    """Star conventions for every p-value of an array at once: * p<0.1,
    ** p<0.05, *** p<0.01 (strict inequalities); NaN gets ""."""
    return np.select([p < 0.01, p < 0.05, p < 0.1], ["***", "**", "*"], "")


def significance_stars(p: float | None) -> str:
    """stacked_stars of one p-value; None gets "" as NaN does."""
    return stacked_stars(np.asarray(math.nan if p is None else p, dtype=float)).item()


@dataclass
class FitResult:
    """One fitted model: coefficients first for endogenous columns, then
    controls, then the intercept."""

    method: str
    outcome: str
    names: tuple[str, ...]
    coef: np.ndarray
    cov: np.ndarray
    se: np.ndarray
    t_stat: np.ndarray
    p_value: np.ndarray
    stars: tuple[str, ...]
    n_obs: int
    n_clusters: int
    df_resid: int
    r_squared: float
    resid_std_error: float
    label: str | None = None
    warnings: tuple[str, ...] = ()
    first_stage_f: dict[str, float] = field(default_factory=dict)

    def coefficient(self, name: str) -> float:
        return float(self.coef[self.names.index(name)])

    def se_of(self, name: str) -> float:
        return float(self.se[self.names.index(name)])

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "outcome": self.outcome,
            "label": self.label,
            "names": list(self.names),
            "coef": [float(v) for v in self.coef],
            "se": [float(v) for v in self.se],
            "t_stat": [None if math.isnan(v) else float(v) for v in self.t_stat],
            "p_value": [None if math.isnan(v) else float(v) for v in self.p_value],
            "stars": list(self.stars),
            "cov": [[float(v) for v in row] for row in self.cov],
            "n_obs": self.n_obs,
            "n_clusters": self.n_clusters,
            "df_resid": self.df_resid,
            "r_squared": None if math.isnan(self.r_squared) else float(self.r_squared),
            "resid_std_error": float(self.resid_std_error),
            "warnings": list(self.warnings),
            "first_stage_f": {k: float(v) for k, v in self.first_stage_f.items()},
        }


@dataclass
class FirstStageEquation:
    endogenous: str
    instrument_names: tuple[str, ...]
    coef: np.ndarray
    se: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    f_stat: float
    p_value: float
    classification: str  # negative | null | positive, by the lead instrument


@dataclass
class FirstStageReport:
    equations: tuple[FirstStageEquation, ...]
    n_obs: int
    n_clusters: int

    def equation(self, endogenous: str) -> FirstStageEquation:
        for eq in self.equations:
            if eq.endogenous == endogenous:
                return eq
        raise KeyError(endogenous)


@dataclass
class EffectEstimate:
    """System-level effect: the mean of per-item tau_i = c_i * (k2 - k1)."""

    tau_hat: float
    se: float | None
    n_items: int
    per_item: tuple[tuple[str, float], ...]


class _Failed(Exception):
    """A check failed the items flagged in bad; error(i) is item i's error."""

    def __init__(self, bad: np.ndarray, error):
        super().__init__()
        self.bad, self.error = bad, error


class _Stack:
    """Same-shape designs of B items on a leading axis: y (B, n), w/z/x
    (B, n, .), cluster codes (B, n) numbered 0.. within each item, and the
    item positions they came from.

    A kernel fits the whole stack or none of it: check() raises _Failed for
    the items a check flags, and _per_item fits without(those items) again.
    Each matrix of a batched qr, svd, solve or matmul, and each cluster sum,
    is computed on its own, so the items left get bit-identical numbers in
    the smaller stack and pass the checks they passed before.
    """

    def __init__(self, pos, z_names, y, w, z, x, codes):
        self.pos, self.z_names = pos, z_names
        self.y, self.w, self.z, self.x = y, w, z, x
        self.codes, self.n_clusters = codes, codes.max(axis=-1) + 1

    def without(self, bad: np.ndarray) -> _Stack:
        keep = np.flatnonzero(~bad)
        return _Stack(
            self.pos[keep], [self.z_names[i] for i in keep],
            self.y[keep], self.w[keep], self.z[keep], self.x[keep], self.codes[keep],
        )

    @staticmethod
    def check(bad: np.ndarray, error) -> None:
        """Fail the items flagged in bad with error(i)."""
        if bad.any():
            raise _Failed(bad, error)

    def fail_all(self, error: EstimationError) -> None:
        self.check(np.ones(len(self.pos), dtype=bool), lambda i: error)

    def check_clusters(self) -> None:
        self.check(self.n_clusters < 2, lambda i: TooFewClusters(
            f"need at least 2 clusters, got {self.n_clusters[i]}"
        ))


def _stacks(design: DesignMatrix):
    """The design's items grouped by exact shape (rows, instruments), one
    _Stack per shape, each with its own instrument columns; a design not
    stacked by item is one stack of one."""
    items = design.items
    if items is None:
        codes = np.unique(design.clusters, return_inverse=True)[1]
        yield _Stack(
            np.zeros(1, dtype=np.intp), [design.z_names], design.y[None],
            design.w[None], design.z[None], design.x[None], codes[None],
        )
        return
    sizes, p_z = np.diff(items.bounds), np.diff(items.z_bounds)
    built = np.flatnonzero([error is None for error in items.errors])
    if not built.size:
        return
    shape = (sizes * (p_z.max() + 1) + p_z)[built]
    by_shape = np.argsort(shape, kind="stable")
    for pos in np.split(built[by_shape], np.flatnonzero(np.diff(shape[by_shape])) + 1):
        rows = items.bounds[pos][:, None] + np.arange(sizes[pos[0]])
        z_cols = items.z_cols[items.z_bounds[pos][:, None] + np.arange(p_z[pos[0]])]
        yield _Stack(
            pos, [tuple(items.z_names[c] for c in cols) for cols in z_cols.tolist()],
            design.y[rows], design.w[rows],
            (items.instrument[rows][..., None] == z_cols[:, None, :]).astype(float),
            design.x[rows], items.codes[rows],
        )


def _per_item(design: DesignMatrix, kernel, build) -> list:
    """Each item's result, or the EstimationError it failed with, in item
    order. kernel fits one bucket's stack to arrays with the bucket's items
    on the leading axis; a bucket with failing items is fitted again without
    them, once per failing check. build(design, done) turns the (stack,
    arrays) of every bucket that fitted into their items' results at once,
    so each distribution function runs once per design, not per bucket. A
    design not stacked by item has one item, which raises."""
    results = [None] if design.items is None else list(design.items.errors)
    done = []
    for stack in _stacks(design):
        while len(stack.pos):
            try:
                done.append((stack, kernel(design, stack)))
            except _Failed as failed:
                if design.items is None:
                    raise failed.error(0) from None
                for i in np.flatnonzero(failed.bad):
                    results[stack.pos[i]] = failed.error(i)
                stack = stack.without(failed.bad)
            else:
                break
    if done:
        pos = np.concatenate([stack.pos for stack, _ in done])
        for g, result in zip(pos.tolist(), build(design, done)):
            results[g] = result
    return results


def _unstack(design: DesignMatrix, results: list):
    return results if design.items is not None else results[0]


class _Factorization:
    """One R-only QR of a stack of same-shape [M, right-hand sides], of which
    only the k rows R[..., :k, :] are kept (M has k columns), and an SVD of
    their k x k leading block R_11. Since M'M = R_11'R_11, that SVD gives
    the condition check, solve and sandwich bread. An item whose M reaches
    condition number 1e12 fails as Collinear."""

    def __init__(self, a: np.ndarray, k: int, what: str):
        if a.shape[-2] < k:
            raise Underdetermined(f"{a.shape[-2]} rows for {k} {what} columns")
        self.r = np.linalg.qr(a, mode="r")[..., :k, :]
        self.u, self.s, self.vt = np.linalg.svd(self.r[..., :k])
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(self.s[:, -1] <= 0.0, math.inf, self.s[:, 0] / self.s[:, -1])
        _Stack.check(cond >= CONDITION_LIMIT, lambda i: Collinear(
            f"{what} matrix condition number {cond[i]:.3g} exceeds 1e12"
        ))

    def solve(self) -> np.ndarray:
        """Per matrix, the (k, r) coefficients of the r right-hand sides on M."""
        rhs = self.r[..., self.r.shape[-2]:]
        return self.vt.swapaxes(-1, -2) @ ((self.u.swapaxes(-1, -2) @ rhs) / self.s[..., None])

    def bread(self) -> np.ndarray:
        return (self.vt.swapaxes(-1, -2) / self.s[:, None, :] ** 2) @ self.vt


def cluster_cov(
    m: np.ndarray,
    residuals: np.ndarray,
    clusters: np.ndarray,
    bread: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """CR1 cluster sandwich covariance for coefficients of y ~ m.

    Returns (covariance, G). With every observation its own cluster this
    reduces exactly to the HC1 heteroskedasticity-robust covariance.

    m may also be a stack (B, n, k) of same-shape matrices with residuals
    and clusters (B, n). Clusters are then codes 0..G_b-1 within each matrix,
    every code used, and (B, k, k) covariances come back with the B counts
    G_b. The score sums of every matrix come from one bincount over codes
    offset per matrix, which adds each cluster's scores in row order; when
    every matrix's codes are 0..n-1 in row order, the scores are the sums.
    """
    single = m.ndim == 2
    if single:
        clusters = np.unique(clusters, return_inverse=True)[1]
        m, residuals, clusters = m[None], residuals[None], clusters[None]
        bread = None if bread is None else bread[None]
    n_groups = clusters.max(axis=-1, initial=-1) + 1
    if n_groups.min() < 2:
        raise TooFewClusters(f"need at least 2 clusters, got {n_groups.min()}")
    if bread is None:
        try:
            bread = _Factorization(m, m.shape[-1], "regressor").bread()
        except _Failed as failed:
            raise failed.error(int(np.argmax(failed.bad))) from None
    b, n, k = m.shape
    scores = m * residuals[..., None]
    offsets = np.cumsum(n_groups) - n_groups
    if (clusters == np.arange(n)).all():  # every cluster one row, in row order
        sums = scores.reshape(-1, k)
        sums += 0.0  # bincount's sums start at +0.0, so a -0.0 score sums to +0.0
    else:
        slots = ((clusters + offsets[:, None]) * k)[..., None] + np.arange(k)
        sums = np.bincount(
            slots.ravel(), weights=scores.ravel(), minlength=int(n_groups.sum()) * k
        ).reshape(-1, k)
    meat = np.empty((b, k, k))
    for g in sorted(set(n_groups.tolist())):  # one matmul per cluster count
        of_g = np.flatnonzero(n_groups == g)
        if len(of_g) == b:
            blocks = sums.reshape(b, g, k)
        else:
            blocks = sums[offsets[of_g][:, None] + np.arange(g)]
        meat[of_g] = blocks.swapaxes(-1, -2) @ blocks
    scale = (n_groups / (n_groups - 1.0)) * ((n - 1.0) / max(n - k, 1))
    cov = bread @ meat @ bread * scale[:, None, None]
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    return (cov[0], int(n_groups[0])) if single else (cov, n_groups)


class _Fits(NamedTuple):
    """One bucket's fits as arrays, its items on the leading axis;
    first_stage_f holds 2SLS's first-stage F per endogenous column (no
    columns for OLS and ILS)."""

    coef: np.ndarray
    cov: np.ndarray
    se: np.ndarray
    t_stat: np.ndarray
    n_clusters: np.ndarray
    n_obs: np.ndarray
    r_squared: np.ndarray
    resid_std_error: np.ndarray
    first_stage_f: np.ndarray


def _inference(
    design: DesignMatrix,
    s: _Stack,
    coef: np.ndarray,
    m: np.ndarray,
    bread: np.ndarray,
    first_stage_f: np.ndarray | None = None,
) -> _Fits:
    s.check_clusters()
    structural_resid = s.y - (np.concatenate([s.w, s.x], axis=-1) @ coef[..., None])[..., 0]
    cov, n_groups = cluster_cov(m, structural_resid, s.codes, bread)
    ssr = (structural_resid[:, None, :] @ structural_resid[..., None])[:, 0, 0]
    tss = ((s.y - s.y.mean(axis=-1, keepdims=True)) ** 2).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.sqrt(np.clip(np.diagonal(cov, axis1=-2, axis2=-1), 0.0, None))
        t_stat = coef / se
        r_squared = np.where(tss > 0, 1.0 - ssr / tss, math.nan)
    n, k = m.shape[-2:]
    if first_stage_f is None:
        first_stage_f = np.empty((len(s.pos), 0))
    return _Fits(coef, cov, se, t_stat, n_groups, np.full(len(s.pos), n), r_squared,
                 np.sqrt(ssr / max(n - k, 1)), first_stage_f)


def _fit_results(method: str, design: DesignMatrix, done: list) -> list[FitResult]:
    """The FitResults of every bucket's items, in bucket order: one stdtr
    call gives all their p-values and one stacked_stars call their stars."""
    fits = _Fits(*(np.concatenate(parts) for parts in zip(*(out for _, out in done))))
    p_value = 2.0 * tails.stdtr((fits.n_clusters - 1)[:, None], -np.abs(fits.t_stat))
    stars = stacked_stars(p_value).tolist()
    weakest = fits.first_stage_f.min(axis=1, initial=math.inf)
    labels = [None if design.items is None else design.items.labels[g]
              for stack, _ in done for g in stack.pos]
    names = design.w_names + design.x_names
    return [
        FitResult(
            method=method,
            outcome=design.outcome_name,
            names=names,
            coef=fits.coef[i],
            cov=fits.cov[i],
            se=fits.se[i],
            t_stat=fits.t_stat[i],
            p_value=p_value[i],
            stars=tuple(stars[i]),
            n_obs=int(fits.n_obs[i]),
            n_clusters=int(fits.n_clusters[i]),
            df_resid=int(fits.n_obs[i]) - len(names),
            r_squared=float(fits.r_squared[i]),
            resid_std_error=float(fits.resid_std_error[i]),
            label=label,
            warnings=(f"weak instruments: joint first-stage F = {weakest[i]:.3g} < 10",)
            if weakest[i] < WEAK_F_THRESHOLD else (),
            first_stage_f=dict(zip(design.w_names, fits.first_stage_f[i].tolist())),
        )
        for i, label in enumerate(labels)
    ]


def _ols(design: DesignMatrix, s: _Stack) -> _Fits:
    m = np.concatenate([s.w, s.x], axis=-1)
    fact = _Factorization(np.concatenate([m, s.y[..., None]], axis=-1), m.shape[-1], "design")
    return _inference(design, s, fact.solve()[..., 0], m, fact.bread())


def fit_ols(design: DesignMatrix) -> FitResult:
    """Least squares of the outcome on [endogenous-as-ordinary, controls].

    On a design stacked by item, a list of each item's FitResult or the
    EstimationError it failed with, in item order (as for every fit here).
    """
    return _unstack(design, _per_item(design, _ols, partial(_fit_results, "OLS")))


def _first_stage(design: DesignMatrix, s: _Stack):
    """OLS of each endogenous column and of the outcome on [Z, X], from one
    factorization of [Z, X, W, y] per item, shared by 2SLS, ILS and
    first_stage.

    Returns (fact, solved, fitted, coef, se, f_stat): solved holds gamma, the
    first-stage coefficients, then the reduced form; coef and se (B, p_w, p_z)
    are each endogenous column's instrument coefficients and their
    cluster-robust standard errors, f_stat (B, p_w) their joint F."""
    p_z, p_w = s.z.shape[-1], s.w.shape[-1]
    a = np.concatenate([s.z, s.x, s.w, s.y[..., None]], axis=-1)
    k = p_z + s.x.shape[-1]
    fact = _Factorization(a, k, "instrument")
    if design.w_names:  # the first cluster sum comes before anything else can fail
        s.check_clusters()
    solved = fact.solve()  # (B, p_z + p_x, p_w + 1)
    p, gamma = a[..., :k], solved[..., :p_w]
    fitted = p @ gamma
    bread = fact.bread()
    coef = gamma[:, :p_z].swapaxes(-1, -2)
    se, f_stat = np.empty_like(coef), np.empty(coef.shape[:-1])
    for j in range(p_w):
        cov_zz = cluster_cov(p, s.w[..., j] - fitted[..., j], s.codes, bread)[0][:, :p_z, :p_z]
        se[:, j] = np.sqrt(np.clip(np.diagonal(cov_zz, axis1=-2, axis2=-1), 0.0, None))
        try:
            wald = np.linalg.solve(cov_zz, coef[:, j, :, None])
        except np.linalg.LinAlgError:  # a cov_zz exactly singular: F by pinv for the stack
            wald = np.linalg.pinv(cov_zz, hermitian=True) @ coef[:, j, :, None]
        f_stat[:, j] = (coef[:, j, None, :] @ wald)[:, 0, 0] / p_z
    return fact, solved, fitted, coef, se, f_stat


def _projected(s: _Stack, first: _Factorization, w_hat: np.ndarray):
    """The second-stage design [W_hat, X] and its factorization. For the
    first k = p_z + p_x columns Q_P of the first stage's Q, W_hat = Q_P R_PW,
    X = Q_P R_PX and Q_P'y = R_Py, so the k-row block [R_PW, R_PX, R_Py] of
    its R is factored in place of n rows."""
    r, p_z = first.r, s.z.shape[-1]
    k = r.shape[-2]
    block = np.concatenate([r[..., k:-1], r[..., p_z:k], r[..., -1:]], axis=-1)
    m2 = np.concatenate([w_hat, s.x], axis=-1)
    return m2, _Factorization(block, m2.shape[-1], "projected design")


def _two_stage(design: DesignMatrix, s: _Stack) -> _Fits:
    p_w, p_z = design.w.shape[1], s.z.shape[-1]
    if p_w == 0:
        s.fail_all(Underidentified("no endogenous columns to instrument"))
    if p_z < p_w:
        s.fail_all(Underidentified(f"{p_z} instruments for {p_w} endogenous columns"))
    first, _, w_hat, _, _, f_stat = _first_stage(design, s)
    m2, fact2 = _projected(s, first, w_hat)
    return _inference(design, s, fact2.solve()[..., 0], m2, fact2.bread(), f_stat)


def fit_2sls(design: DesignMatrix) -> FitResult:
    """Two-stage least squares with structural residuals for inference."""
    fits = _per_item(design, _two_stage, partial(_fit_results, "2SLS"))
    for fit in fits:
        if isinstance(fit, FitResult) and fit.warnings:
            warnings.warn(fit.warnings[0], WeakInstrumentWarning, stacklevel=2)
    return _unstack(design, fits)


def _indirect(design: DesignMatrix, s: _Stack) -> _Fits:
    p_w, p_z = design.w.shape[1], s.z.shape[-1]
    if p_w != 1 or p_z != 1:
        s.fail_all(NotJustIdentified(
            f"ILS needs exactly 1 endogenous and 1 instrument column, got {p_w} and {p_z}"
        ))
    first, solved, w_hat, _, se, _ = _first_stage(design, s)
    pi, se_pi = solved[:, 0, 0], se[:, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        indistinct = (se_pi > 0) & (np.abs(pi) / se_pi < ILS_ZERO_T)

    def zero(i):
        if indistinct[i]:
            return ZeroFirstStage(
                f"first-stage coefficient {pi[i]:.3g} (se {se_pi[i]:.3g}) is "
                "statistically indistinguishable from zero; the ILS ratio is undefined"
            )
        return ZeroFirstStage("first-stage coefficient is exactly zero")

    s.check(indistinct | ((se_pi == 0.0) & (pi == 0.0)), zero)
    rho = solved[..., -1]  # reduced form on [Z, X]
    beta_w = rho[:, 0] / pi
    beta_x = rho[:, 1:] - solved[:, 1:, 0] * beta_w[:, None]
    coef = np.concatenate([beta_w[:, None], beta_x], axis=1)
    m2, fact2 = _projected(s, first, w_hat)
    return _inference(design, s, coef, m2, fact2.bread())


def fit_ils(design: DesignMatrix) -> FitResult:
    """Indirect least squares: reduced-form over first-stage coefficient ratio.

    Requires a just-identified design. The coefficient algebra is derived
    from the two auxiliary regressions alone, which makes the numerical
    identity with fit_2sls a meaningful check rather than a tautology.
    """
    return _unstack(design, _per_item(design, _indirect, partial(_fit_results, "ILS")))


def _first_stage_only(design: DesignMatrix, s: _Stack):
    if s.z.shape[-1] == 0:
        s.fail_all(Underidentified("design has no instruments"))
    return _first_stage(design, s)[3:]


def _first_stage_reports(design: DesignMatrix, done: list) -> list[FirstStageReport]:
    """The FirstStageReports of every bucket's items, in bucket order: one
    fdtrc call gives all their F p-values and one stdtrit call their CI
    critical values."""
    at = np.cumsum([len(stack.pos) for stack, _ in done])[:-1]
    df = np.concatenate([stack.n_clusters for stack, _ in done]) - 1
    p_z = np.concatenate([np.full(len(stack.pos), stack.z.shape[-1]) for stack, _ in done])
    f_stats = np.concatenate([f_stat for _, (_, _, f_stat) in done])
    # a near-singular cov_zz can leave F a rounding error below 0, where fdtrc is 1
    p_values = np.split(tails.fdtrc(p_z[:, None], df[:, None], f_stats), at)
    tcrits = np.split(tails.stdtrit(df, 0.975), at)
    reports = []
    for (s, (coef, se, f_stat)), p_value, tcrit in zip(done, p_values, tcrits):
        half_width = tcrit[:, None, None] * se
        ci_low, ci_high = coef - half_width, coef + half_width
        lead = np.select([ci_high[..., 0] < 0, ci_low[..., 0] > 0], ["negative", "positive"], "null")
        reports += [
            FirstStageReport(
                equations=tuple(
                    FirstStageEquation(
                        endogenous=name,
                        instrument_names=s.z_names[i],
                        coef=coef[i, j],
                        se=se[i, j],
                        ci_low=ci_low[i, j],
                        ci_high=ci_high[i, j],
                        f_stat=float(f_stat[i, j]),
                        p_value=float(p_value[i, j]),
                        classification=str(lead[i, j]),
                    )
                    for j, name in enumerate(design.w_names)
                ),
                n_obs=s.y.shape[-1],
                n_clusters=int(s.n_clusters[i]) if design.w_names else 0,
            )
            for i in range(len(s.pos))
        ]
    return reports


def first_stage(design: DesignMatrix) -> FirstStageReport:
    """Per-endogenous first-stage diagnostics with cluster-robust inference.

    The joint F is the Wald statistic on the excluded instruments divided by
    their count, referred to F(q, G-1); with one instrument it equals the
    squared t-statistic exactly. Classification compares the lead
    instrument's 95% CI to zero: entirely below -> negative (treatment moves
    the column down, e.g. rank improves), entirely above -> positive,
    otherwise null.
    """
    return _unstack(design, _per_item(design, _first_stage_only, _first_stage_reports))


def effect_name(fit: FitResult) -> str:
    """The coefficient of a fit's position effect: position, else the first."""
    return "position" if "position" in fit.names else fit.names[0]


def aggregate_effect(fits: Sequence[FitResult], k1: int, k2: int) -> EffectEstimate:
    """System-level effect from per-item fits: tau_i = c_i*(k2-k1), averaged.

    The SE is the cross-item sample SD over sqrt(N); it is absent for a
    single item. Fits are ordered by label for determinism.
    """
    fits = list(fits)
    if not fits:
        raise EmptyInput("no item fits to aggregate")
    if k1 < 1 or k2 < 1:
        raise ValueError("positions must be >= 1")

    def sort_key(fit: FitResult):
        lbl = fit.label or ""
        return (0, int(lbl)) if lbl.isdigit() else (1, lbl)

    fits.sort(key=sort_key)
    taus = np.array([f.coefficient(effect_name(f)) * (k2 - k1) for f in fits])
    labels = [f.label or "" for f in fits]
    tau_hat = float(taus.mean())
    se = float(taus.std(ddof=1) / math.sqrt(len(taus))) if len(taus) > 1 else None
    return EffectEstimate(
        tau_hat=tau_hat,
        se=se,
        n_items=len(taus),
        per_item=tuple(zip(labels, (float(t) for t in taus))),
    )
