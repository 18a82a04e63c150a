"""Student-t and F tails, and the Student-t quantile, in numpy alone.

All three reduce to the regularized incomplete beta I_x(a, b):

    stdtr(nu, t)    = 1/2 I_{nu/(nu+t^2)}(nu/2, 1/2)  for t <= 0 (mirrored above 0)
    fdtrc(p, nu, F) = I_{nu/(nu+pF)}(nu/2, p/2)
    stdtrit(nu, q)  = the t with stdtr(nu, t) = q, by Newton steps on stdtr
                      from Hill's start (1970, CACM Algorithm 396)

Each passes 1 - x as well, computed from its own numerator (t^2/(nu+t^2),
pF/(nu+pF)), so no digits are lost where x is near 1. I_x(a, b) is DiDonato
and Morris's continued fraction (1992, ACM TOMS Algorithm 708, BFRAC), whose
coefficients take 1 - x as given, evaluated by modified Lentz over every lane
at once with the usual swap to 1 - I_{1-x}(b, a) for x > (a+1)/(a+b+2); a
lane leaves the loop once its last factor is within a few ulps of 1, and one
that never does gets NaN. The log-beta of the front factor is computed once
per distinct (a, b), from log1p and Stirling's series with the arrangement of
the same paper's betaln, since lgamma(a) + lgamma(b) - lgamma(a+b) put p
1.1e-10 off mpmath at nu in 5000..20000. Against mpmath on nu up to 100000,
stdtr is within 2e-14 relative for |t| < 5 and 2e-13 out to |t| = 40, where
the exponent of the front factor, not the fraction, sets the error.

Arguments broadcast as in scipy.special, whose stdtr, fdtrc and stdtrit
these replace. Degrees of freedom that are not positive give NaN, and
stdtrit needs df >= 1.
"""

from __future__ import annotations

import math

import numpy as np

_STOP = 1e-15  # a lane has converged when its last Lentz factor is this close to 1
_BLOCK = 8  # Lentz steps per batch of coefficients and per convergence check
# Once a block of twice the steps would hold at most this many lane-steps,
# numpy's cost per call outweighs the arithmetic, so the next block doubles.
_FEW_STEPS = 1024
_MAX_STEPS = 1000
_MAX_NEWTON = 20
# Stirling's series lgamma(x) - ((x - 1/2) ln x - x + ln(2 pi)/2) in powers of
# 1/x^2, times 1/x: B_2k / (2k (2k - 1)); eight terms reach 1e-17 at x >= 10.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _stirling_rest(x: float) -> float:
    z, rest = 1.0 / (x * x), 0.0
    for c in reversed(_STIRLING):
        rest = rest * z + c
    return rest / x


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b), with Stirling's series for each argument >= 10, so the
    large terms of lgamma cancel in closed form instead of in rounding."""
    a, b = min(a, b), max(a, b)
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    rest = _stirling_rest(b) - _stirling_rest(a + b)
    if a < 10.0:  # lgamma(b) - lgamma(a+b) expanded, plus lgamma(a)
        return math.lgamma(a) + a + rest - (b - 0.5) * math.log1p(a / b) - a * math.log(a + b)
    return (_HALF_LOG_2PI - 0.5 * math.log(a) - a * math.log1p(b / a)
            - (b - 0.5) * math.log1p(a / b) + _stirling_rest(a) + rest)


def _fraction(a: np.ndarray, b: np.ndarray, pair: np.ndarray, x: np.ndarray,
              y: np.ndarray) -> np.ndarray:
    """K of I_x(a, b) = x^a y^b / (B(a, b) K) for each lane x, y = 1 - x of
    the pair a[pair], b[pair]: DiDonato and Morris's continued fraction
    (BFRAC), K = b_0 + a_1/(b_1 + a_2/(b_2 + ...)), by modified Lentz. Its
    coefficients take y as given, so no digits go to 1 - x, and they split
    as a_m = P_m x^2 and b_m = U_m + V_m x + W_m y, whose factors depend on
    the pair alone. Lentz's C and 1/D take the same step c -> b_m + a_m / c,
    so they share one (2, lanes) array; the factors are made, and the steps
    multiplied, per block of _BLOCK steps, or of twice the last block's once
    few lanes are left. A lane leaves at the end of the first block whose
    last C D is within _STOP of 1; one still there after _MAX_STEPS steps
    gets NaN. No step guards against a zero C or 1/D: it would take
    a_m / c = -b_m to the last bit."""
    value = np.full_like(x, math.nan)
    lanes = np.arange(x.size)
    # b_0 = a (lambda + 1) / (a + 1), lambda = a - (a + b) x = a y - b x
    c = np.stack([(a / (a + 1.0))[pair] * (a[pair] * y - b[pair] * x + 1.0),
                  np.full_like(x, math.inf)])  # C and 1/D
    k = c[0].copy()
    first, size = 1, _BLOCK
    while lanes.size and first < _MAX_STEPS:
        m = np.arange(first, first + size, dtype=float)[:, None]
        odd = a + (2.0 * m - 1.0)
        r = (a + m) / (odd + 2.0)
        mb = m * (b - m) / odd
        p = (a + (m - 1.0)) * (a + b + (m - 1.0)) * mb / odd
        u, v, w = m + r * (m + 1.0), mb - r * b, r * (a + m)
        alpha = p[:, pair] * (x * x)
        beta = u[:, pair] + v[:, pair] * x + w[:, pair] * y
        steps = np.empty((size, 2, lanes.size))
        for coef, term, step in zip(alpha, beta, steps):
            np.divide(coef, c, out=step)
            step += term
            c = step
        product = steps.prod(axis=0)
        k *= product[0] / product[1]
        done = np.abs(c[0] / c[1] - 1.0) < _STOP
        value[lanes[done]] = k[done]
        left = ~done
        lanes, pair, x, y, c, k = lanes[left], pair[left], x[left], y[left], c[:, left], k[left]
        first += size
        size = 2 * size if 2 * size * lanes.size <= _FEW_STEPS else _BLOCK
    return value


def _betainc(a, b, x, rest) -> np.ndarray:
    """I_x(a, b) for x = 1 - rest, where both x and rest are given to full
    precision, so ln x and ln(1 - x) each come from the one with more digits."""
    a, b, x, rest = np.broadcast_arrays(a, b, x, rest)
    shape = x.shape
    a, b, x, rest = a.ravel(), b.ravel(), x.ravel(), rest.ravel()
    swap = x > (a + 1.0) / (a + b + 2.0)
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    x, rest = np.where(swap, rest, x), np.where(swap, x, rest)
    pairs, pair = np.unique(a + 1j * b, return_inverse=True)
    a, b = pairs.real, pairs.imag
    log_beta = np.array([_log_beta(p, q) if p > 0.0 and q > 0.0 else math.nan
                         for p, q in zip(a.tolist(), b.tolist())])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_x = np.where(rest < 0.5, np.log1p(-rest), np.log(x))
        log_rest = np.where(x < 0.5, np.log1p(-x), np.log(rest))
        value = np.exp(a[pair] * log_x + b[pair] * log_rest - log_beta[pair])
    live = np.flatnonzero(value > 0.0)  # NaN and underflowed lanes keep their front
    value[live] /= _fraction(a, b, pair[live], x[live], rest[live])
    return np.where(swap, 1.0 - value, value).reshape(shape)


def stdtr(df, t) -> np.ndarray:
    """P(T <= t) for Student's t on df degrees of freedom."""
    df, t = np.asarray(df, dtype=float), np.asarray(t, dtype=float)
    t2 = t * t
    with np.errstate(invalid="ignore"):  # t = +-inf: rest is inf/inf, where x = 0 decides
        lower = 0.5 * _betainc(0.5 * df, 0.5, df / (df + t2), t2 / (df + t2))
    return np.where(t > 0.0, 1.0 - lower, lower)


def fdtrc(dfn, dfd, f) -> np.ndarray:
    """P(F > f) for the F distribution on (dfn, dfd) degrees of freedom;
    1 for f <= 0."""
    dfn, dfd = np.asarray(dfn, dtype=float), np.asarray(dfd, dtype=float)
    pf = dfn * np.maximum(f, 0.0)
    with np.errstate(invalid="ignore"):  # f = inf, as t = +-inf in stdtr
        return _betainc(0.5 * dfd, 0.5 * dfn, dfd / (dfd + pf), pf / (dfd + pf))


def _hill(nu: np.ndarray, p: np.ndarray) -> np.ndarray:
    """|t| of two-tailed probability p on nu >= 1 degrees of freedom, by
    Hill (1970, CACM Algorithm 396): exact at nu = 1 and 2, else within
    3e-3 relative (2e-4 at p = 0.05), mostly the error of its normal
    deviate; Newton steps polish it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = 1.0 / (nu - 0.5)
        b = 48.0 / (a * a)
        c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
        d = ((94.5 / (b + c) - 3.0) / b + 1.0) * np.sqrt(a * math.pi / 2.0) * nu
        y = (d * p) ** (2.0 / nu)
        # the normal deviate of p/2 (Abramowitz and Stegun 26.2.23, to 4.5e-4)
        s = np.sqrt(-2.0 * np.log(0.5 * p))
        z = s - (2.515517 + (0.802853 + 0.010328 * s) * s) / (
            1.0 + (1.432788 + (0.189269 + 0.001308 * s) * s) * s)
        c = c + np.where(nu < 5.0, 0.3 * (nu - 4.5) * (z + 0.6), 0.0)
        c = (((0.05 * d * z - 5.0) * z - 7.0) * z - 2.0) * z + b + c
        z2 = z * z
        far = (((((0.4 * z2 + 6.3) * z2 + 36.0) * z2 + 94.5) / c - z2 - 3.0) / b + 1.0) * z
        far = np.expm1(a * far * far)
        near = ((1.0 / (((nu + 6.0) / (nu * y) - 0.089 * d - 0.822) * (nu + 2.0) * 3.0)
                 + 0.5 / (nu + 4.0)) * y - 1.0) * (nu + 1.0) / (nu + 2.0) + 1.0 / y
        t = np.sqrt(nu * np.where(y > 0.05 + a, far, near))
        t = np.where(nu == 2.0, np.sqrt(2.0 / (p * (2.0 - p)) - 2.0), t)
        return np.where(nu == 1.0, 1.0 / np.tan(0.5 * math.pi * p), t)


def stdtrit(df, q) -> np.ndarray:
    """The t with stdtr(df, t) = q, for df >= 1: Newton steps on stdtr in
    the lower tail from Hill's start, once per distinct (df, q). Each lane
    leaves the Newton loop at its own convergence. Its bits can still depend
    on how many lanes the call holds: stdtr's continued fraction picks its
    block sizes by the number of live lanes (_fraction), so a lane that
    needs more than one block of steps may end on other bits in a call of
    many lanes than alone."""
    df, q = np.broadcast_arrays(np.asarray(df, dtype=float), np.asarray(q, dtype=float))
    pairs, inverse = np.unique(df + 1j * q, return_inverse=True)
    nu, q = pairs.real, pairs.imag
    tail = np.minimum(q, 1.0 - q)  # exact for q in [1/2, 1]
    t = np.select([tail == 0.0, tail == 0.5], [-math.inf, 0.0], math.nan)
    solve = np.flatnonzero((tail > 0.0) & (tail < 0.5) & (nu >= 1.0))
    nu, tail = nu[solve], tail[solve]
    log_scale = -0.5 * np.log(nu) - np.array([_log_beta(n / 2.0, 0.5) for n in nu.tolist()])
    root = -_hill(nu, 2.0 * tail)
    live = np.arange(len(nu))
    for _ in range(_MAX_NEWTON):
        n, r = nu[live], root[live]
        density = np.exp(log_scale[live] - 0.5 * (n + 1.0) * np.log1p(r * r / n))
        step = (stdtr(n, r) - tail[live]) / density
        root[live] = r = r - step
        # Newton squares the error: after a step below 1e-8 the next is below an ulp
        live = live[~(np.abs(step) <= 1e-8 * np.abs(r))]
        if not live.size:
            break
    t[solve] = root
    return np.where(q > 0.5, -t, t)[inverse].reshape(df.shape)
