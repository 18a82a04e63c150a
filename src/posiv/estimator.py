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

Every design stacks its items' rows (build_design(..., by_item=True)), and a
single design is the stack of one item, labelled None. One stacked kernel
does every fit, on a stack of the design's items with the same instrument
count p_z, whose instruments are the first p_z columns of the design's z. A
stack holds its items' rows flat, ordered by row count, so each part, a run
of items with the same row count n, is a (B, n, .) view of them. Only the
calls that read rows run once per part: the tall R-only np.linalg.qr, the
fitted values and residuals, the sums of squares and the cluster score sums
of all a fit stage's equations (the first stage's p_w columns side by side),
from one bincount per score column. The k x k work (SVDs, checks, solves,
breads, sandwiches, the joint F and the second stage's k-row factorization)
runs once per stack. There is no zero padding, which can change the last
bits of R, and a stack reads only its own items' instrument columns, so each
matrix LAPACK factors is the one a fit of that item alone would factor. The
kernel returns arrays, which are copied into columns with a row per item
(FitColumns, FirstStageColumns). A FitResult or FirstStageReport, with its t
or F tails (posiv.tails, in numpy), is built only when one item is asked
for; the first stage's CI critical values come from one stdtrit call over
every fitted item.

Each kernel makes one pass over a stack and fails items by mask, as
build_design does: a check records its error for each item it flags that has
none yet, and gives those items finite stand-ins (unit singular values, an
identity first-stage covariance, G = 2, a unit ILS denominator) for the rest
of the pass. A check on shape fails the whole stack and skips the kernel. A
fit of a single design returns its one result, or raises its error. An item
whose first-stage covariance reaches condition number 1e12 gets the identity
too, and a NaN (undefined) joint F, but does not fail.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

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
UNDEFINED_F_NOTE = ("weak instruments: joint first-stage F undefined "
                    "(instrument covariance condition number at or past 1e12)")


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
            "first_stage_f": {
                k: None if math.isnan(v) else float(v) for k, v in self.first_stage_f.items()
            },
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


class _Stack:
    """The items of one instrument count (positions pos, n_obs rows each):
    the first stage's [Z, X, W, y] as a (N, k + p_w + 1), viewed as z, x and
    w (y is a copy), and cluster codes (N,) numbered 0.. per item hold their
    rows item after item in ascending row count. parts(a) views rows as one
    (B_p, n, .) array per run of items with n rows; split(a) cuts per item.

    check() marks the items a check flags in failed, and the first error an
    item meets becomes its entry of errors. Each matrix of a batched qr,
    svd, solve or matmul, and each cluster sum, is computed on its own, so a
    failed item's stand-ins leave the other items' numbers as they would be
    in a stack without it.
    """

    def __init__(self, pos, n_obs, a, p_z, p_w, codes, errors):
        self.pos, self.n_obs, self.a, self.k = pos, n_obs, a, a.shape[-1] - p_w - 1
        self.z, self.x, self.w = a[:, :p_z], a[:, p_z:self.k], a[:, self.k:-1]
        self.y = a[:, -1].copy()  # contiguous, so the sums over each item's rows keep their order
        starts = np.cumsum(n_obs) - n_obs
        self.codes, self.n_clusters = codes, np.maximum.reduceat(codes, starts) + 1
        first = np.flatnonzero(np.append(True, np.diff(n_obs))).tolist()  # each part's first item
        self.sizes, bounds = n_obs[first].tolist(), [*starts[first].tolist(), len(a)]
        self.item_parts = list(map(slice, first, [*first[1:], len(pos)]))
        self.row_parts = list(map(slice, bounds[:-1], bounds[1:]))
        self.failed, self.errors = np.zeros(len(pos), dtype=bool), errors

    def parts(self, a: np.ndarray) -> list:
        return [a[rows].reshape((rows.stop - rows.start) // n, n, *a.shape[1:])
                for rows, n in zip(self.row_parts, self.sizes)]

    def split(self, a: np.ndarray) -> list:
        return [a[items] for items in self.item_parts]

    def check(self, bad: np.ndarray, error) -> None:
        """Fail the items flagged in bad with error(i)."""
        if bad.any():
            for i in np.flatnonzero(bad & ~self.failed).tolist():
                self.errors[self.pos[i]] = error(i)
            self.failed |= bad

    def fail_all(self, error: EstimationError) -> None:
        self.check(np.ones(len(self.pos), dtype=bool), lambda i: error)

    def check_clusters(self) -> None:
        self.check(self.n_clusters < 2, lambda i: TooFewClusters(
            f"need at least 2 clusters, got {self.n_clusters[i]}"
        ))

    def cluster_cov(self, m: list, residuals: list, bread: np.ndarray) -> np.ndarray:
        parts = zip(m, residuals, self.parts(self.codes), self.split(self.n_clusters))
        return _cluster_cov(parts, bread, self.n_clusters, self.n_obs)


def _stacks(design: DesignMatrix, errors: list):
    """The design's built items grouped by instrument count, one _Stack per
    count, each with its items' own instrument columns (the first count
    columns of z) and failing its items into errors."""
    items, p_w = design.items, design.w.shape[1]
    sizes, p_z = np.diff(items.bounds), np.diff(items.z_bounds)
    built = np.flatnonzero([error is None for error in items.errors])
    for width in sorted(set(p_z[built].tolist())):
        pos = built[p_z[built] == width]
        pos = pos[np.argsort(sizes[pos], kind="stable")]
        n_obs = sizes[pos]
        starts = np.cumsum(n_obs) - n_obs
        rows = np.repeat(items.bounds[pos] - starts, n_obs) + np.arange(n_obs.sum())
        a = np.empty((len(rows), width + design.x.shape[1] + p_w + 1))
        # np.take gathers the rows of a 2-D array faster than indexing with rows
        a[:, :width] = np.take(design.z[:, :width], rows, axis=0)
        a[:, width:-1 - p_w] = np.take(design.x, rows, axis=0)
        a[:, -1 - p_w:-1] = np.take(design.w, rows, axis=0)
        a[:, -1] = design.y[rows]
        yield _Stack(pos, n_obs, a, width, p_w, items.codes[rows], errors)


def _per_item(design: DesignMatrix, kernel) -> tuple[list, list]:
    """(errors, columns): each item's EstimationError or None, in item order,
    and each array kernel returns, with a row per item. kernel makes one pass
    over a stack and returns arrays with its items on the leading axis (None
    when it fails them all). A failed item's row is NaN, and so are the
    cells past an item's own width where stacks differ in width (instrument
    counts). With no item fitted, columns is empty."""
    errors = list(design.items.errors)
    parts = []
    for stack in _stacks(design, errors):
        out, ok = kernel(design, stack), ~stack.failed
        if ok.any():
            parts.append((stack.pos[ok], [a[ok] for a in out]))
    columns = []
    for arrays in zip(*(out for _, out in parts)):
        column = np.full((len(errors), *np.max([a.shape[1:] for a in arrays], axis=0)), math.nan)
        for (pos, _), a in zip(parts, arrays):
            column[(pos, *map(slice, a.shape[1:]))] = a
        columns.append(column)
    return errors, columns


class _ItemColumns(Sequence):
    """One fit's results for every item of a design as columns, a row per
    item, and errors[g], the EstimationError item g failed with or None. A
    read-only sequence: [g] builds item g's result object when it is asked
    for, or returns item g's error."""

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, g: int):
        g = range(len(self.errors))[g]  # from the end if negative; IndexError past either end
        return self.errors[g] or self._item(g)

    def unstacked(self):
        """These columns for a design stacked by item; for a single design
        (one item labelled None) its one result, or its error raised."""
        if self.design.items.labels != (None,):
            return self
        if self.errors[0] is not None:
            raise self.errors[0]
        return self._item(0)


def _raise_first(bad: np.ndarray, error) -> None:
    """The failure rule of a lone call: raise the first flagged item's error."""
    if bad.any():
        raise error(int(np.argmax(bad)))


class _Factorization:
    """One R-only QR per part, a stack of same-shape [M, right-hand sides],
    of which only the k rows R[..., :k, :] are kept (M has k columns), and
    one SVD of all their k x k leading blocks R_11. Since M'M = R_11'R_11,
    that SVD gives the condition check, solve and sandwich bread. fail(bad,
    error) fails the items whose M reaches condition number 1e12 as
    Collinear, and unit singular values keep their solve and bread finite."""

    def __init__(self, parts: list, k: int, what: str, fail):
        n = min(a.shape[-2] for a in parts)
        if n < k:
            raise Underdetermined(f"{n} rows for {k} {what} columns")
        self.r = np.concatenate([np.linalg.qr(a, mode="r")[..., :k, :] for a in parts])
        self.u, self.s, self.vt = np.linalg.svd(self.r[..., :k])
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(self.s[:, -1] <= 0.0, math.inf, self.s[:, 0] / self.s[:, -1])
        collinear = cond >= CONDITION_LIMIT
        fail(collinear, lambda i: Collinear(
            f"{what} matrix condition number {cond[i]:.3g} exceeds 1e12"
        ))
        self.s[collinear] = 1.0

    def solve(self) -> np.ndarray:
        """Per matrix, the (k, r) coefficients of the r right-hand sides on M."""
        rhs = self.r[..., self.r.shape[-2]:]
        return self.vt.swapaxes(-1, -2) @ ((self.u.swapaxes(-1, -2) @ rhs) / self.s[..., None])

    def bread(self) -> np.ndarray:
        return (self.vt.swapaxes(-1, -2) / self.s[:, None, :] ** 2) @ self.vt


def _cluster_cov(parts, bread: np.ndarray, n_groups: np.ndarray, n_obs: np.ndarray):
    """The (B, q, k, k) CR1 covariances of q equations, scaled by each item's
    own G (2 if below) and n, from a stack's breads and parts (m, residuals,
    clusters, G) of (B_p, n, k), (B_p, n, q) and codes 0..G-1. A part's score
    sums, q * k columns, come from one bincount per column, which adds each
    cluster's scores in row order (when every code is its row, the scores are
    the sums); one matmul per cluster count pairs each equation's own columns."""
    meats = []
    for m, residuals, clusters, part_groups in parts:
        (b, n, k), q = m.shape, residuals.shape[-1]
        offsets = np.cumsum(part_groups) - part_groups
        if (clusters == np.arange(n)).all():  # every cluster one row, in row order
            sums = (m[..., None, :] * residuals[..., None]).reshape(b * n, q * k)
            sums += 0.0  # bincount's sums start at +0.0, so a -0.0 score sums to +0.0
        else:
            scores = np.multiply(np.moveaxis(m, -1, 0), np.moveaxis(residuals, -1, 0)[:, None],
                                 out=np.empty((q, k, b, n))).reshape(q * k, b * n)
            slots, total = (clusters + offsets[:, None]).ravel(), int(part_groups.sum())
            sums = np.empty((total, q * k))
            for j in range(q * k):
                sums[:, j] = np.bincount(slots, weights=scores[j], minlength=total)
        meat = np.empty((b, q, k, k))
        for g in sorted(set(part_groups.tolist())):  # one matmul per cluster count
            of_g = np.flatnonzero(part_groups == g)
            if len(of_g) == b:
                blocks = sums.reshape(b, g, q, k)
            else:
                blocks = sums[offsets[of_g][:, None] + np.arange(g)].reshape(-1, g, q, k)
            meat[of_g] = blocks.transpose(0, 2, 3, 1) @ blocks.swapaxes(1, 2)  # (., q, k, k)
        meats.append(meat)
    groups, k = np.maximum(n_groups, 2), bread.shape[-1]
    scale = (groups / (groups - 1.0)) * ((n_obs - 1.0) / np.maximum(n_obs - k, 1))
    cov = bread[:, None] @ np.concatenate(meats) @ bread[:, None] * scale[:, None, None, None]
    return 0.5 * (cov + cov.swapaxes(-1, -2))


def cluster_cov(
    m: np.ndarray, residuals: np.ndarray, clusters: np.ndarray
) -> tuple[np.ndarray, int]:
    """CR1 cluster sandwich covariance for coefficients of y ~ m.

    Returns (covariance, G). With every observation its own cluster this
    reduces exactly to the HC1 heteroskedasticity-robust covariance.
    """
    codes = np.unique(clusters, return_inverse=True)[1]
    n_groups = np.array([codes.max(initial=-1) + 1])
    if n_groups[0] < 2:
        raise TooFewClusters(f"need at least 2 clusters, got {n_groups[0]}")
    m = m[None]
    bread = _Factorization([m], m.shape[-1], "regressor", _raise_first).bread()
    parts = [(m, residuals[None, :, None], codes[None], n_groups)]
    return _cluster_cov(parts, bread, n_groups, np.array([len(codes)]))[0, 0], int(n_groups[0])


class _Fits(NamedTuple):
    """Fits as arrays, items on the leading axis: a kernel's for one stack,
    or FitColumns' for every item. first_stage_f holds 2SLS's first-stage F
    per endogenous column (no columns for OLS and ILS)."""

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
    m: list,
    bread: np.ndarray,
    first_stage_f: np.ndarray | None = None,
) -> _Fits:
    s.check_clusters()
    resid = [y[..., None] - np.concatenate([w, x], axis=-1) @ c[..., None] for y, w, x, c in zip(
        s.parts(s.y), s.parts(s.w), s.parts(s.x), s.split(coef))]  # (B_p, n, 1): one equation
    cov = s.cluster_cov(m, resid, bread)[:, 0]
    ssr = np.concatenate([(u.swapaxes(-1, -2) @ u)[:, 0, 0] for u in resid])
    tss = np.concatenate([((y - y.mean(axis=-1, keepdims=True)) ** 2).sum(axis=-1)
                          for y in s.parts(s.y)])
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.sqrt(np.clip(np.diagonal(cov, axis1=-2, axis2=-1), 0.0, None))
        t_stat = coef / se
        r_squared = np.where(tss > 0, 1.0 - ssr / tss, math.nan)
    if first_stage_f is None:
        first_stage_f = np.empty((len(s.pos), 0))
    return _Fits(coef, cov, se, t_stat, s.n_clusters, s.n_obs, r_squared,
                 np.sqrt(ssr / np.maximum(s.n_obs - coef.shape[-1], 1)), first_stage_f)


class FitColumns(_ItemColumns):
    """What fit_ols, fit_2sls and fit_ils return for a design stacked by
    item: the method, the design, errors, and fits, the _Fits arrays with a
    row per item (NaN in a failed item's rows). [g] is item g's FitResult,
    with its id as label."""

    def __init__(self, method: str, design: DesignMatrix, errors: list, columns: list):
        if not columns:  # no item fitted
            k = len(design.w_names) + len(design.x_names)
            columns = [np.full((len(errors), *shape), math.nan)
                       for shape in ((k,), (k, k), (k,), (k,), (), (), (), (), (0,))]
        self.method, self.design, self.errors, self.fits = method, design, errors, _Fits(*columns)

    def _item(self, g: int) -> FitResult:
        """One stdtr call gives the item's p-values, as a fit of it alone."""
        design, fits = self.design, self.fits
        p_value = 2.0 * tails.stdtr(fits.n_clusters[g] - 1, -np.abs(fits.t_stat[g]))
        weakest = fits.first_stage_f[g].min(initial=math.inf)  # NaN if any F is undefined
        names = design.w_names + design.x_names
        return FitResult(
            method=self.method,
            outcome=design.outcome_name,
            names=names,
            coef=fits.coef[g],
            cov=fits.cov[g],
            se=fits.se[g],
            t_stat=fits.t_stat[g],
            p_value=p_value,
            stars=tuple(stacked_stars(p_value).tolist()),
            n_obs=int(fits.n_obs[g]),
            n_clusters=int(fits.n_clusters[g]),
            df_resid=int(fits.n_obs[g]) - len(names),
            r_squared=float(fits.r_squared[g]),
            resid_std_error=float(fits.resid_std_error[g]),
            label=design.items.labels[g],
            warnings=(UNDEFINED_F_NOTE,) if math.isnan(weakest)
            else (f"weak instruments: joint first-stage F = {weakest:.3g} < 10",)
            if weakest < WEAK_F_THRESHOLD else (),
            first_stage_f=dict(zip(design.w_names, fits.first_stage_f[g].tolist())),
        )


def _ols(design: DesignMatrix, s: _Stack) -> _Fits:
    # with no instruments and no endogenous columns, [Z, X, W, y] is [W, X, y]
    m = s.a if s.a.shape[-1] == s.x.shape[-1] + 1 else np.concatenate(
        [s.w, s.x, s.y[:, None]], axis=-1)
    k = m.shape[-1] - 1
    fact = _Factorization(s.parts(m), k, "design", s.check)
    return _inference(design, s, fact.solve()[..., 0], s.parts(m[:, :k]), fact.bread())


def fit_ols(design: DesignMatrix) -> FitResult | FitColumns:
    """Least squares of the outcome on [endogenous-as-ordinary, controls].

    On a design stacked by item, the FitColumns of every item, whose [g] is
    item g's FitResult or the EstimationError it failed with (as for every
    fit here).
    """
    return FitColumns("OLS", design, *_per_item(design, _ols)).unstacked()


def _first_stage(design: DesignMatrix, s: _Stack):
    """OLS of each endogenous column and of the outcome on [Z, X], from one
    factorization of [Z, X, W, y] per item, shared by 2SLS, ILS and
    first_stage.

    Returns (fact, solved, fitted, coef, se, f_stat): solved holds gamma, the
    first-stage coefficients, then the reduced form; fitted holds each
    part's first-stage fitted values; coef and se (B, p_w, p_z)
    are each endogenous column's instrument coefficients and their
    cluster-robust standard errors, f_stat (B, p_w) their joint F."""
    p_z, p_w, k = s.z.shape[-1], s.w.shape[-1], s.k
    fact = _Factorization(s.parts(s.a), k, "instrument", s.check)
    if design.w_names:  # the first cluster sum comes before anything else can fail
        s.check_clusters()
    solved = fact.solve()  # (B, p_z + p_x, p_w + 1)
    p, gamma = s.parts(s.a[:, :k]), solved[..., :p_w]
    fitted = [pp @ g for pp, g in zip(p, s.split(gamma))]
    resid = [wp - fp for wp, fp in zip(s.parts(s.w), fitted)]  # (B_p, n, p_w): p_w equations
    cov_zz = s.cluster_cov(p, resid, fact.bread())[..., :p_z, :p_z]  # (B, p_w, p_z, p_z)
    coef = gamma[:, :p_z].swapaxes(-1, -2)
    se = np.sqrt(np.clip(np.diagonal(cov_zz, axis1=-2, axis2=-1), 0.0, None))
    cov_zz[s.failed] = np.eye(p_z)  # a failed item's cov_zz can be singular
    eig = np.linalg.eigvalsh(cov_zz)  # ascending
    undefined = ~(eig[..., 0] * CONDITION_LIMIT > eig[..., -1])  # cond >= 1e12, eig <= 0, NaN
    cov_zz[undefined] = np.eye(p_z)
    wald = np.linalg.solve(cov_zz, coef[..., None])
    f_stat = np.where(undefined, math.nan, (coef[..., None, :] @ wald)[..., 0, 0] / p_z)
    return fact, solved, fitted, coef, se, f_stat


def _projected(s: _Stack, first: _Factorization, w_hat: list):
    """Each part's second-stage design [W_hat, X], and their factorization.
    For the first k = p_z + p_x columns Q_P of the first stage's Q, W_hat =
    Q_P R_PW, X = Q_P R_PX and Q_P'y = R_Py, so the k-row block [R_PW, R_PX,
    R_Py] of its R is factored in place of n rows."""
    r, p_z = first.r, s.z.shape[-1]
    k = r.shape[-2]
    block = np.concatenate([r[..., k:-1], r[..., p_z:k], r[..., -1:]], axis=-1)
    m2 = (np.concatenate([f, x], axis=-1) for f, x in zip(w_hat, s.parts(s.x)))
    return m2, _Factorization([block], s.w.shape[-1] + s.x.shape[-1], "projected design", s.check)


def _two_stage(design: DesignMatrix, s: _Stack) -> _Fits:
    p_w, p_z = design.w.shape[1], s.z.shape[-1]
    if p_w == 0:
        return s.fail_all(Underidentified("no endogenous columns to instrument"))
    if p_z < p_w:
        return s.fail_all(Underidentified(f"{p_z} instruments for {p_w} endogenous columns"))
    first, _, w_hat, _, _, f_stat = _first_stage(design, s)
    m2, fact2 = _projected(s, first, w_hat)
    return _inference(design, s, fact2.solve()[..., 0], m2, fact2.bread(), f_stat)


def fit_2sls(design: DesignMatrix) -> FitResult | FitColumns:
    """Two-stage least squares with structural residuals for inference. A
    single design's weak first stage warns; a stacked design's items do not."""
    fit = FitColumns("2SLS", design, *_per_item(design, _two_stage)).unstacked()
    if design.items.labels == (None,) and fit.warnings:
        warnings.warn(fit.warnings[0], WeakInstrumentWarning, stacklevel=2)
    return fit


def _indirect(design: DesignMatrix, s: _Stack) -> _Fits:
    p_w, p_z = design.w.shape[1], s.z.shape[-1]
    if p_w != 1 or p_z != 1:
        return s.fail_all(NotJustIdentified(
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
    pi = np.where(s.failed, 1.0, pi)  # a failed item's pi can be 0
    rho = solved[..., -1]  # reduced form on [Z, X]
    beta_w = rho[:, 0] / pi
    beta_x = rho[:, 1:] - solved[:, 1:, 0] * beta_w[:, None]
    coef = np.concatenate([beta_w[:, None], beta_x], axis=1)
    m2, fact2 = _projected(s, first, w_hat)
    return _inference(design, s, coef, m2, fact2.bread())


def fit_ils(design: DesignMatrix) -> FitResult | FitColumns:
    """Indirect least squares: reduced-form over first-stage coefficient ratio.

    Requires a just-identified design. The coefficient algebra is derived
    from the two auxiliary regressions alone, which makes the numerical
    identity with fit_2sls a meaningful check rather than a tautology.
    """
    return FitColumns("ILS", design, *_per_item(design, _indirect)).unstacked()


def _first_stage_only(design: DesignMatrix, s: _Stack):
    if s.z.shape[-1] == 0:
        return s.fail_all(Underidentified("design has no instruments"))
    return (*_first_stage(design, s)[3:], s.n_clusters, s.n_obs)


class FirstStageColumns(_ItemColumns):
    """What first_stage returns for a design stacked by item: coef, se,
    ci_low and ci_high (items, p_w, widest p_z), NaN past each item's own
    instruments; f_stat (items, p_w); n_clusters and n_obs (items,);
    classification (items, p_w); errors. [g] is item g's FirstStageReport.
    One stdtrit call over the fitted items gives every CI's critical value."""

    def __init__(self, design: DesignMatrix, errors: list, columns: list):
        if not columns:  # no item fitted
            p_w = len(design.w_names)
            columns = [np.full((len(errors), *shape), math.nan)
                       for shape in ((p_w, 1), (p_w, 1), (p_w,), (), ())]
        self.design, self.errors = design, errors
        self.coef, self.se, self.f_stat, self.n_clusters, self.n_obs = columns
        # a failed item's df is NaN, which stdtrit leaves out of its Newton steps
        tcrit = tails.stdtrit(self.n_clusters - 1, 0.975)
        half_width = tcrit[:, None, None] * self.se
        self.ci_low, self.ci_high = self.coef - half_width, self.coef + half_width
        self.classification = np.select([self.ci_high[..., 0] < 0, self.ci_low[..., 0] > 0],
                                        ["negative", "positive"], "null")

    def _item(self, g: int) -> FirstStageReport:
        """One fdtrc call gives the item's F p-values, as a fit of it alone."""
        design, items = self.design, self.design.items
        z_names = tuple(design.z_names[c] for c in (
            items.z_cols[items.z_bounds[g]:items.z_bounds[g + 1]].tolist()))
        p_z = len(z_names)
        p_value = tails.fdtrc(p_z, self.n_clusters[g] - 1, self.f_stat[g])
        return FirstStageReport(
            equations=tuple(
                FirstStageEquation(
                    endogenous=name,
                    instrument_names=z_names,
                    coef=self.coef[g, j, :p_z],
                    se=self.se[g, j, :p_z],
                    ci_low=self.ci_low[g, j, :p_z],
                    ci_high=self.ci_high[g, j, :p_z],
                    f_stat=float(self.f_stat[g, j]),
                    p_value=float(p_value[j]),
                    classification=str(self.classification[g, j]),
                )
                for j, name in enumerate(design.w_names)
            ),
            n_obs=int(self.n_obs[g]),
            n_clusters=int(self.n_clusters[g]) if design.w_names else 0,
        )


def first_stage(design: DesignMatrix) -> FirstStageReport | FirstStageColumns:
    """Per-endogenous first-stage diagnostics with cluster-robust inference.

    The joint F is the Wald statistic on the excluded instruments divided by
    their count, referred to F(q, G-1); with one instrument it equals the
    squared t-statistic exactly. Classification compares the lead
    instrument's 95% CI to zero: entirely below -> negative (treatment moves
    the column down, e.g. rank improves), entirely above -> positive,
    otherwise null. On a design stacked by item, the FirstStageColumns of
    every item.
    """
    return FirstStageColumns(design, *_per_item(design, _first_stage_only)).unstacked()


def aggregate_effect(slopes: Sequence[float], k1: int, k2: int) -> EffectEstimate:
    """System-level effect from per-item slopes c_i: tau_i = c_i*(k2-k1),
    averaged in the order given.

    The SE is the cross-item sample SD over sqrt(N); it is absent for a
    single item.
    """
    if not len(slopes):
        raise EmptyInput("no item fits to aggregate")
    if k1 < 1 or k2 < 1:
        raise ValueError("positions must be >= 1")
    taus = np.asarray(slopes, dtype=float) * (k2 - k1)
    se = float(taus.std(ddof=1) / math.sqrt(len(taus))) if len(taus) > 1 else None
    return EffectEstimate(tau_hat=float(taus.mean()), se=se, n_items=len(taus))
