"""OLS, 2SLS, and ILS fitting with cluster-robust inference.

Numerics: every least-squares problem is solved through one thin SVD of the
regressor matrix (an orthogonal, rank-revealing factorization); normal
equations are never formed to solve. The same factorization supplies the
sandwich bread (M'M)^{-1} = V diag(1/s^2) V'. A condition number at or above
1e12 raises Collinear.

Covariance is the CR1 cluster sandwich:

    cov = (M'M)^{-1} [ sum_g (M_g' u_g)(M_g' u_g)' ] (M'M)^{-1}
          * (G/(G-1)) * ((N-1)/(N-k))

with t-tests against Student-t on G-1 degrees of freedom. For the IV fits,
M is the projected design [W_hat, X] while the residuals u are structural
(computed from the original W), which is also why the reported R-squared can
go negative: a coefficient pulled away from the OLS minimizer can fit worse
than the outcome mean, and that is expected behavior, not an error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    Collinear,
    EmptyInput,
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


def significance_stars(p: float) -> str:
    """Star conventions: * p<0.1, ** p<0.05, *** p<0.01 (strict inequalities)."""
    if p is None or math.isnan(p):
        return ""
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


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


class _Factorization:
    """Thin SVD of a regressor matrix, shared by solve and sandwich bread."""

    def __init__(self, m: np.ndarray, what: str):
        n, k = m.shape
        if n < k:
            raise Underdetermined(f"{n} rows for {k} {what} columns")
        u_mat, s, vt = np.linalg.svd(m, full_matrices=False)
        if k and (s[-1] <= 0.0 or s[0] / s[-1] >= CONDITION_LIMIT):
            cond = math.inf if s[-1] <= 0.0 else s[0] / s[-1]
            raise Collinear(f"{what} matrix condition number {cond:.3g} exceeds 1e12")
        self.u, self.s, self.vt = u_mat, s, vt
        self.shape = m.shape

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.ndim == 1:
            return self.vt.T @ ((self.u.T @ rhs) / self.s)
        return self.vt.T @ ((self.u.T @ rhs) / self.s[:, None])

    def bread(self) -> np.ndarray:
        return (self.vt.T / self.s**2) @ self.vt


def cluster_cov(
    m: np.ndarray,
    residuals: np.ndarray,
    clusters: np.ndarray,
    bread: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """CR1 cluster sandwich covariance for coefficients of y ~ m.

    Returns (covariance, G). With every observation its own cluster this
    reduces exactly to the HC1 heteroskedasticity-robust covariance.
    """
    n, k = m.shape
    _, inverse = np.unique(clusters, return_inverse=True)
    n_groups = int(inverse.max()) + 1 if n else 0
    if n_groups < 2:
        raise TooFewClusters(f"need at least 2 clusters, got {n_groups}")
    if bread is None:
        bread = _Factorization(m, "regressor").bread()
    scores = m * residuals[:, None]
    sums = np.zeros((n_groups, k))
    np.add.at(sums, inverse, scores)
    meat = sums.T @ sums
    scale = (n_groups / (n_groups - 1.0)) * ((n - 1.0) / max(n - k, 1))
    cov = bread @ meat @ bread * scale
    return 0.5 * (cov + cov.T), n_groups


def _inference(
    method: str,
    design: DesignMatrix,
    names: tuple[str, ...],
    coef: np.ndarray,
    m: np.ndarray,
    structural_resid: np.ndarray,
    bread: np.ndarray,
    label: str | None,
    extra_warnings: tuple[str, ...] = (),
    first_stage_f: dict[str, float] | None = None,
) -> FitResult:
    y = design.y
    n, k = m.shape
    cov, n_groups = cluster_cov(m, structural_resid, design.clusters, bread)
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        t_stat = coef / se
    from scipy import special  # deferred: ~0.3 s of import a CLI run without fits skips

    p_value = 2.0 * special.stdtr(n_groups - 1, -np.abs(t_stat))
    ssr = float(structural_resid @ structural_resid)
    tss = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ssr / tss if tss > 0 else math.nan
    df_resid = n - k
    rse = math.sqrt(ssr / max(df_resid, 1))
    return FitResult(
        method=method,
        outcome=design.outcome_name,
        names=names,
        coef=coef,
        cov=cov,
        se=se,
        t_stat=t_stat,
        p_value=p_value,
        stars=tuple(significance_stars(p) for p in p_value),
        n_obs=n,
        n_clusters=n_groups,
        df_resid=df_resid,
        r_squared=r_squared,
        resid_std_error=rse,
        label=label if label is not None else design.label,
        warnings=extra_warnings,
        first_stage_f=dict(first_stage_f or {}),
    )


def fit_ols(design: DesignMatrix, label: str | None = None) -> FitResult:
    """Least squares of the outcome on [endogenous-as-ordinary, controls]."""
    m = np.hstack([design.w, design.x])
    names = design.w_names + design.x_names
    fact = _Factorization(m, "design")
    coef = fact.solve(design.y)
    resid = design.y - m @ coef
    return _inference("OLS", design, names, coef, m, resid, fact.bread(), label)


def _first_stage(design: DesignMatrix):
    """OLS of each endogenous column on one factorization of [Z, X], shared by
    2SLS, ILS and first_stage. Returns (fact, gamma, fitted, FirstStageReport)."""
    from scipy import special  # deferred, as in _inference

    p = np.hstack([design.z, design.x])
    fact = _Factorization(p, "instrument")
    gamma = fact.solve(design.w)  # (p_z + p_x, p_w)
    fitted = p @ gamma
    bread = fact.bread()
    p_z = design.z.shape[1]
    equations = []
    n_groups = 0
    for j, name in enumerate(design.w_names):
        resid = design.w[:, j] - fitted[:, j]
        cov, n_groups = cluster_cov(p, resid, design.clusters, bread)
        coef_z = gamma[:p_z, j]
        cov_zz = cov[:p_z, :p_z]
        se_z = np.sqrt(np.clip(np.diag(cov_zz), 0.0, None))
        try:
            solved = np.linalg.solve(cov_zz, coef_z)
        except np.linalg.LinAlgError:
            solved = np.linalg.pinv(cov_zz) @ coef_z
        f_stat = float(coef_z @ solved) / p_z
        # fdtrc is NaN below 0 where f.sf is 1; a near-singular cov_zz can
        # leave F a rounding error below 0.
        p_value = float(special.fdtrc(p_z, n_groups - 1, max(f_stat, 0.0)))
        tcrit = float(special.stdtrit(n_groups - 1, 0.975))
        ci_low = coef_z - tcrit * se_z
        ci_high = coef_z + tcrit * se_z
        if ci_high[0] < 0.0:
            label = "negative"
        elif ci_low[0] > 0.0:
            label = "positive"
        else:
            label = "null"
        equations.append(
            FirstStageEquation(
                endogenous=name,
                instrument_names=design.z_names,
                coef=coef_z,
                se=se_z,
                ci_low=ci_low,
                ci_high=ci_high,
                f_stat=f_stat,
                p_value=p_value,
                classification=label,
            )
        )
    return fact, gamma, fitted, FirstStageReport(tuple(equations), design.n_obs, n_groups)


def fit_2sls(design: DesignMatrix, label: str | None = None) -> FitResult:
    """Two-stage least squares with structural residuals for inference."""
    if design.w.shape[1] == 0:
        raise Underidentified("no endogenous columns to instrument")
    if design.z.shape[1] < design.w.shape[1]:
        raise Underidentified(
            f"{design.z.shape[1]} instruments for {design.w.shape[1]} endogenous columns"
        )
    _, _, w_hat, report = _first_stage(design)
    m2 = np.hstack([w_hat, design.x])
    names = design.w_names + design.x_names
    fact2 = _Factorization(m2, "projected design")
    coef = fact2.solve(design.y)
    structural = design.y - np.hstack([design.w, design.x]) @ coef

    fs_f = {eq.endogenous: eq.f_stat for eq in report.equations}
    notes: tuple[str, ...] = ()
    weakest = min(fs_f.values()) if fs_f else math.inf
    if weakest < WEAK_F_THRESHOLD:
        message = f"weak instruments: joint first-stage F = {weakest:.3g} < 10"
        warnings.warn(message, WeakInstrumentWarning, stacklevel=2)
        notes = (message,)
    return _inference(
        "2SLS", design, names, coef, m2, structural, fact2.bread(), label,
        extra_warnings=notes, first_stage_f=fs_f,
    )


def fit_ils(design: DesignMatrix, label: str | None = None) -> FitResult:
    """Indirect least squares: reduced-form over first-stage coefficient ratio.

    Requires a just-identified design. The coefficient algebra is derived
    from the two auxiliary regressions alone, which makes the numerical
    identity with fit_2sls a meaningful check rather than a tautology.
    """
    if design.w.shape[1] != 1 or design.z.shape[1] != 1:
        raise NotJustIdentified(
            f"ILS needs exactly 1 endogenous and 1 instrument column, got "
            f"{design.w.shape[1]} and {design.z.shape[1]}"
        )
    fact_p, gamma, w_hat, report = _first_stage(design)
    eq = report.equations[0]
    pi, se_pi = float(eq.coef[0]), float(eq.se[0])
    if se_pi > 0 and abs(pi) / se_pi < ILS_ZERO_T:
        raise ZeroFirstStage(
            f"first-stage coefficient {pi:.3g} (se {se_pi:.3g}) is "
            "statistically indistinguishable from zero; the ILS ratio is undefined"
        )
    if se_pi == 0.0 and pi == 0.0:
        raise ZeroFirstStage("first-stage coefficient is exactly zero")

    rho = fact_p.solve(design.y)  # reduced form on [Z, X]
    beta_w = rho[0] / pi
    beta_x = rho[1:] - gamma[1:, 0] * beta_w
    coef = np.concatenate([[beta_w], beta_x])

    names = design.w_names + design.x_names
    m2 = np.hstack([w_hat, design.x])
    fact2 = _Factorization(m2, "projected design")
    structural = design.y - np.hstack([design.w, design.x]) @ coef
    return _inference("ILS", design, names, coef, m2, structural, fact2.bread(), label)


def first_stage(design: DesignMatrix) -> FirstStageReport:
    """Per-endogenous first-stage diagnostics with cluster-robust inference.

    The joint F is the Wald statistic on the excluded instruments divided by
    their count, referred to F(q, G-1); with one instrument it equals the
    squared t-statistic exactly. Classification compares the lead
    instrument's 95% CI to zero: entirely below -> negative (treatment moves
    the column down, e.g. rank improves), entirely above -> positive,
    otherwise null.
    """
    if design.z.shape[1] == 0:
        raise Underidentified("design has no instruments")
    return _first_stage(design)[3]


def _position_coefficient(fit: FitResult) -> float:
    if "position" in fit.names:
        return fit.coefficient("position")
    return float(fit.coef[0])


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
    taus = np.array([_position_coefficient(f) * (k2 - k1) for f in fits])
    labels = [f.label or "" for f in fits]
    tau_hat = float(taus.mean())
    se = float(taus.std(ddof=1) / math.sqrt(len(taus))) if len(taus) > 1 else None
    return EffectEstimate(
        tau_hat=tau_hat,
        se=se,
        n_items=len(taus),
        per_item=tuple(zip(labels, (float(t) for t in taus))),
    )
