"""The numpy t and F tails against closed forms that need no other package,
against each other, at their edge values, and against mpmath where it is
importable."""

import math

import numpy as np
import pytest

from posiv import tails
from posiv.tails import fdtrc, stdtr, stdtrit

T_GRID = np.concatenate([-np.logspace(-8, 3, 45), [0.0], np.logspace(-8, 3, 45)])
NU_GRID = np.array([1, 2, 3, 4.5, 7, 10, 19, 20, 21, 50, 99, 1000, 20000], dtype=float)


def _assert_close(got, want, rtol):
    """got within rtol of want, relative, wherever want is at least 1e-280;
    below that the tails reach subnormals, which hold fewer digits."""
    got, want = np.broadcast_arrays(got, want)
    kept = np.abs(want) >= 1e-280
    error = np.abs(got - want)[kept] / np.abs(want)[kept]
    assert error.max(initial=0.0) <= rtol, error.max()


def test_cauchy_is_nu_1():
    # 1/2 + atan(t)/pi, written as atan2(1, -t)/pi so the lower tail keeps its digits
    _assert_close(stdtr(1.0, T_GRID), np.arctan2(1.0, -T_GRID) / math.pi, 1e-14)


def test_nu_2_closed_form():
    # 1/2 + t/(2 sqrt(2+t^2)); below 0 the same as 1/(r (r + |t|)), r = sqrt(2+t^2)
    r = np.sqrt(2.0 + T_GRID**2)
    lower = 1.0 / (r * (r + np.abs(T_GRID)))
    _assert_close(stdtr(2.0, T_GRID), np.where(T_GRID > 0, 1.0 - lower, lower), 1e-14)


def test_f_on_2_numerator_degrees_closed_form():
    nu, f = NU_GRID[:, None], np.logspace(-6, 3, 40)
    # (1 + 2F/nu)^(-nu/2)
    _assert_close(fdtrc(2.0, nu, f), np.exp(-0.5 * nu * np.log1p(2.0 * f / nu)), 1e-12)


def test_f_on_1_numerator_degree_is_the_two_sided_t():
    nu, t = NU_GRID[:, None], T_GRID
    _assert_close(fdtrc(1.0, nu, t * t), 2.0 * stdtr(nu, -np.abs(t)), 1e-12)


def test_quantile_inverts_the_tail():
    nu = NU_GRID[:, None]
    t = -np.logspace(-3, 1.5, 30)
    _assert_close(stdtrit(nu, stdtr(nu, t)), t, 1e-12)
    q = np.array([1e-12, 0.001, 0.025, 0.3, 0.5 - 1e-9, 0.7, 0.975, 0.999])
    _assert_close(stdtr(nu, stdtrit(nu, q)), q, 1e-12)


def test_quantile_runs_once_per_distinct_pair():
    nu = np.array([[5.0, 30.0, 5.0], [30.0, 5.0, 5.0]])
    got = stdtrit(nu, 0.975)
    assert got.shape == nu.shape
    assert np.array_equal(got, np.where(nu == 5.0, stdtrit(5.0, 0.975), stdtrit(30.0, 0.975)))


def test_edge_values():
    nu = NU_GRID
    assert np.all(stdtr(nu, 0.0) == 0.5)
    assert np.all(2.0 * stdtr(nu, -0.0) == 1.0)  # t = 0 gives p = 1 exactly
    assert np.all(stdtr(nu, -math.inf) == 0.0) and np.all(stdtr(nu, math.inf) == 1.0)
    assert np.all(np.isnan(stdtr(nu, math.nan)))
    assert np.all(fdtrc(3.0, nu, [[0.0], [-1e-12], [-5.0]]) == 1.0)
    assert np.all(fdtrc(3.0, nu, math.inf) == 0.0)
    assert np.all(np.isnan(fdtrc(3.0, nu, math.nan)))
    assert np.all(stdtrit(nu, 0.5) == 0.0)
    assert np.all(stdtrit(nu, 0.0) == -math.inf) and np.all(stdtrit(nu, 1.0) == math.inf)
    assert np.isnan(stdtr(0.0, -1.0)) and np.isnan(stdtr(-3.0, -1.0))


def test_mirror_symmetry():
    nu, t = NU_GRID[:, None], T_GRID[T_GRID > 0]
    assert np.array_equal(stdtr(nu, t), 1.0 - stdtr(nu, -t))
    assert np.array_equal(stdtrit(nu, 0.975), -stdtrit(nu, 1.0 - 0.975))


def test_against_mpmath():
    """nu reaches 100000, past the 50000 clusters of a 500k-row pymk file
    fitted whole (estimate --no-sample)."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(11)
    nu = np.concatenate([np.arange(1, 41), rng.integers(41, 20001, 120),
                         rng.integers(20001, 100001, 80)]).astype(float)
    t = -np.abs(np.concatenate([rng.uniform(-3, 3, 60), rng.uniform(-40, 40, 60),
                                rng.uniform(-3, 3, 40), rng.uniform(-40, 40, 40),
                                rng.uniform(-3, 3, 40)]))
    half = mpmath.mpf(1) / 2

    def lower_tail(n, x):  # P(T <= x) for x <= 0
        n, x = mpmath.mpf(n), mpmath.mpf(x)
        return half * mpmath.betainc(n / 2, half, 0, n / (n + x * x), regularized=True)

    want = np.array([float(lower_tail(n, x)) for n, x in zip(nu, t)])
    assert (want >= 1e-280).sum() > 200
    got = stdtr(nu, t)
    _assert_close(got, want, 1e-11)
    # below |t| = 5 the fraction, not the front factor's exponent, sets the error
    _assert_close(got[t > -5.0], want[t > -5.0], 1e-13)

    p = rng.integers(1, 9, nu.size).astype(float)
    f = rng.exponential(4.0, nu.size)
    want = np.array([float(mpmath.betainc(mpmath.mpf(d) / 2, mpmath.mpf(k) / 2, 0,
                                          mpmath.mpf(d) / (d + k * mpmath.mpf(v)),
                                          regularized=True))
                     for k, d, v in zip(p, nu, f)])
    _assert_close(fdtrc(p, nu, f), want, 1e-11)

    for n in (1.0, 2.0, 3.0, 7.0, 29.0, 150.0, 4000.0, 9999.0, 49999.0):
        q = float(mpmath.findroot(lambda x: lower_tail(n, -x) - mpmath.mpf(0.025), 2.0))
        _assert_close(stdtrit(n, 0.975), q, 1e-14)


def test_a_lane_that_does_not_converge_is_nan(monkeypatch):
    """Far out in the tail the fraction converges within one block of steps,
    near the centre it takes more; cut to one block, only the slow lane is NaN."""
    t = [-30.0, -2.0]
    monkeypatch.setattr(tails, "_MAX_STEPS", tails._BLOCK)
    got = stdtr(9999.0, t)
    assert got[0] > 0.0 and np.isnan(got[1])
    monkeypatch.undo()
    assert np.array_equal(stdtr(9999.0, t)[0], got[0]) and stdtr(9999.0, t)[1] > 0.0
