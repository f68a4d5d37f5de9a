"""qfpsim's numpy solvers against scipy's, which stay the independent reference.

``brentq`` is a port of scipy's and must return its root bit for bit;
``minimize`` must reach what L-BFGS-B reaches on the likelihoods it
serves, and ``curve_fit`` scipy's parameters and covariance.
"""

import numpy as np
import pytest
import scipy.optimize as so
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfpsim import calib, qfp, tomo
from qfpsim._solvers import brentq, curve_fit, minimize
from qfpsim.errors import OutOfRangeError
from qfpsim.tomo import carve_bell_state, simulate_counts

EPS = np.finfo(float).eps
# scipy's default stopping rules of L-BFGS-B
LBFGSB = {"ftol": 2.220446049250313e-09, "gtol": 1e-5, "maxiter": 15000}


def _lbfgsb(fun, x0, args=(), *, options):
    """scipy's L-BFGS-B in the call form of qfpsim's minimize."""
    return so.minimize(fun, x0, args=args, jac=True, method="L-BFGS-B", options=options)


def _scipy_curve_fit(f, xdata, ydata, p0, *, jac, sigma=None, absolute_sigma=False, maxfev):
    return so.curve_fit(f, xdata, ydata, p0=p0, jac=jac, sigma=sigma,
                        absolute_sigma=absolute_sigma, maxfev=maxfev)


# a strictly monotone function with one root r, of drawn shape: an odd
# power, flat at the root for k > 1, a step of drawn sharpness and an
# exponential, so that Brent's interpolation is taken and refused
_shapes = st.tuples(st.floats(-5.0, 5.0), st.sampled_from([1, 3, 5, 9]), st.floats(0.0, 3.0),
                    st.floats(-1.0, 3.0), st.sampled_from([1.0, -1.0]))


def _monotone(root, power, step, log_sharpness, sign):
    sharpness = 10.0**log_sharpness
    return lambda x: sign * (np.sign(x - root) * abs(x - root) ** power
                             + step * np.tanh(sharpness * (x - root)) + 0.1 * np.expm1(x - root))


@settings(max_examples=300, deadline=None)
@given(_shapes, st.floats(-3.0, 1.3), st.floats(-3.0, 1.3), st.floats(-15.0, -1.0))
@example((0.0, 1, 0.0, 0.0, 1.0), 0.0, 0.0, -12.0)  # a root at the midpoint
@example((0.3, 9, 3.0, 3.0, -1.0), -3.0, 1.3, -15.0)  # a sharp step near one end
def test_brentq_returns_scipys_root_bit_for_bit(shape, log_below, log_above, log_xtol):
    # a mutation of the step rule (3|s_bis| to 2|s_bis|) changes the root
    # for about 6 % of these draws
    f = _monotone(*shape)
    root, xtol = shape[0], 10.0**log_xtol
    a, b = root - 10.0**log_below, root + 10.0**log_above
    ours = brentq(f, a, b, xtol=xtol)
    assert ours == so.brentq(f, a, b, xtol=xtol)
    assert abs(ours - root) <= 2.0 * (xtol + 4.0 * EPS * abs(root)) + 1e-15 * (b - a)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, np.pi / 2.0), st.floats(0.05, 4.0))
def test_alpha_for_theta_is_scipys_bit_for_bit(theta, delta):
    try:
        ours = qfp.alpha_for_theta(theta, delta)
    except OutOfRangeError:
        return
    with pytest.MonkeyPatch.context() as m:
        m.setattr(qfp, "brentq", so.brentq)
        assert ours == qfp.alpha_for_theta(theta, delta)


def test_brentq_failures():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: np.nan if x > 0.5 else -1.0, 0.0, 1.0)
    calls = []

    def slow(x):
        calls.append(x)
        return np.cbrt(x - 0.3)

    with pytest.raises(RuntimeError, match="converge after 3 iterations"):
        brentq(slow, 0.0, 1.0, xtol=1e-15, maxiter=3)
    assert len(calls) == 2 + 3  # the bracket, then one evaluation per iteration
    # an end point that is a root comes back as it is
    assert brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0


def _mle_problem(suppression_db, log_shots, car, phase, seed):
    """The first start of mle_reconstruct on records simulated as the
    tomography command simulates them: the whitened objective, its
    arguments and options."""
    rho = carve_bell_state(suppression_db, phase)
    shots = 10.0**log_shots
    peak = max(r.counts for r in simulate_counts(rho, shots)) / shots
    records = simulate_counts(rho, shots, accidental_fraction=peak / car,
                              rng=np.random.default_rng(seed))
    captured = []

    def capture(fun, x0, args=(), options=None):
        captured.append((fun, x0, args, options))
        return minimize(fun, x0, args=args, options=options)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(tomo, "minimize", capture)
        m.setattr(tomo, "MLE_RESTARTS", 0)
        tomo.mle_reconstruct(records)
    return records, captured[0]


_states = st.tuples(st.floats(8.0, 20.0), st.floats(3.0, 6.0), st.floats(5.0, 100.0),
                    st.floats(0.0, 2.0 * np.pi), st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(_states)
def test_minimize_reaches_lbfgsb_on_the_mle(state):
    _, (fun, x0, args, options) = _mle_problem(*state)
    ours = minimize(fun, x0, args=args, options=options)
    ref = _lbfgsb(fun, x0, args=args, options=options)
    assert ours.success
    # both stop once an iteration lowers the NLL by at most ftol = 1e-14 of
    # it, so they end within a small multiple of that
    assert ours.fun <= ref.fun + 1e-12 * abs(ref.fun) + 1e-9


@settings(max_examples=15, deadline=None)
@given(_states)
def test_mle_reconstruct_is_no_worse_than_with_lbfgsb(state):
    records, _ = _mle_problem(*state)
    pis = np.array([r.projector for r in records])
    data = np.array([(r.counts, r.shots, r.accidental) for r in records]).T
    ours = tomo._negloglike_and_drho(tomo.mle_reconstruct(records), pis, *data)[0]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tomo, "minimize", _lbfgsb)
        ref = tomo._negloglike_and_drho(tomo.mle_reconstruct(records), pis, *data)[0]
    assert ours <= ref + 1e-12 * abs(ref) + 1e-6


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.floats(0.0, 4.0), st.integers(0, 2**32 - 1))
def test_minimize_reaches_the_optimum_of_a_convex_quadratic(n, log_cond, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    hess = (q * np.logspace(0.0, log_cond, n)) @ q.T
    optimum = rng.standard_normal(n)

    def quadratic(x):
        d = x - optimum
        return 0.5 * d @ hess @ d, hess @ d

    res = minimize(quadratic, np.zeros(n), options={"ftol": 0.0, "gtol": 1e-10, "maxiter": 1000})
    assert res.success and res.nit <= 10 * n + 20
    assert np.abs(res.jac).max() <= 1e-10
    assert np.abs(res.x - optimum).max() <= 1e-10 * 10.0**log_cond


def test_minimize_failures_and_limits():
    # a start whose gradient passes gtol comes back bit for bit
    x0 = np.array([0.1, -0.2])
    res = minimize(lambda x: (float(x @ x), 1e-13 * x), x0, options={**LBFGSB, "gtol": 1e-12})
    assert res.success and res.nit == 0 and res.nfev == 1 and np.array_equal(res.x, x0)
    # a NaN objective ends the run without raising
    for objective in (lambda x: (np.nan, x), lambda x: (float(x @ x), np.full(2, np.nan))):
        res = minimize(objective, x0, options=LBFGSB)
        assert not res.success and res.nfev == 1

    # NaN past the start: the run ends at the start, its last finite point
    calls = []

    def nan_after_start(x):
        calls.append(x)
        return (float(x @ x) if len(calls) == 1 else np.nan), 2.0 * x

    res = minimize(nan_after_start, x0, options=LBFGSB)
    assert not res.success and res.nfev == 2 and np.array_equal(res.x, x0)
    assert res.fun == float(x0 @ x0) and "not finite" in res.message

    def rosenbrock(x):
        value = (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
        grad = np.array([-2 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                         200.0 * (x[1] - x[0] ** 2)])
        return value, grad

    start = np.array([-1.2, 1.0])
    res = minimize(rosenbrock, start, options={**LBFGSB, "maxiter": 5})
    assert not res.success and res.nit == 5 and "maxiter" in res.message
    assert res.fun < rosenbrock(start)[0]
    res = minimize(rosenbrock, start, options={**LBFGSB, "gtol": 1e-9, "ftol": 0.0})
    assert res.success and np.abs(res.x - 1.0).max() < 1e-8


def _fringe(x, b, v, chi):
    return b * (1.0 + v * np.cos(x + chi))


def _fringe_jac(x, b, v, chi):
    c = np.cos(x + chi)
    return np.column_stack((1.0 + v * c, b * c, -b * v * np.sin(x + chi)))


def _phase_curve(p, i0, p2pi, phi0):
    return i0 * np.cos(2.0 * np.pi * p / p2pi + phi0)


def _phase_curve_jac(p, i0, p2pi, phi0):
    u = 2.0 * np.pi * p / p2pi + phi0
    return np.column_stack((np.cos(u), i0 * 2.0 * np.pi * p / p2pi**2 * np.sin(u),
                            -i0 * np.sin(u)))


def _assert_matches_scipy(f, jac, x, y, p0, **kwargs):
    calls = {"ours": 0, "scipy": 0}

    def counted(side):
        def model(*args):
            calls[side] += 1
            return f(*args)
        return model

    popt, pcov = curve_fit(counted("ours"), x, y, p0=p0, jac=jac, maxfev=20000, **kwargs)
    ref_popt, ref_pcov = _scipy_curve_fit(counted("scipy"), x, y, p0=p0, jac=jac,
                                          maxfev=20000, **kwargs)
    # MINPACK's steps and tests: the same evaluations as scipy's lmder
    assert calls["ours"] == calls["scipy"]
    # both stop within sqrt(eps) of the same minimum; the covariance scales
    # with the residual, which a noiseless curve leaves at rounding level
    assert np.allclose(popt, ref_popt, rtol=1e-6, atol=1e-9 * np.abs(ref_popt).max())
    assert np.allclose(pcov, ref_pcov, rtol=1e-5, atol=1e-5 * np.abs(ref_pcov).max() + 1e-24)


@settings(max_examples=100, deadline=None)
@given(st.integers(5, 40), st.floats(2.0, 6.0), st.floats(0.05, 0.99),
       st.floats(-np.pi, np.pi), st.integers(0, 2**32 - 1))
def test_curve_fit_matches_scipy_on_fringes(points, log_counts, visibility, chi, seed):
    # as tomo.fit_visibility fits them: Poisson counts, shot-noise weights
    phis = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    counts = np.random.default_rng(seed).poisson(
        _fringe(phis, 10.0**log_counts, visibility, chi)).astype(float)
    b0 = counts.mean()
    if np.ptp(counts) == 0.0 or b0 == 0.0:
        return
    p0 = [b0, min(np.ptp(counts) / (2.0 * b0), 0.99), -phis[np.argmax(counts)]]
    _assert_matches_scipy(_fringe, _fringe_jac, phis, counts, p0,
                          sigma=np.sqrt(np.maximum(counts, 1.0)), absolute_sigma=True)


@settings(max_examples=100, deadline=None)
@given(st.integers(8, 40), st.floats(0.0, 0.2), st.floats(0.5, 2.0),
       st.floats(-np.pi, np.pi), st.floats(1.2, 3.0), st.integers(0, 2**32 - 1))
def test_curve_fit_matches_scipy_on_phase_curves(points, sigma, p2pi, phi0, periods, seed):
    # as calib.fit_phase_curve fits them: from its grid search's start
    powers = np.linspace(0.0, periods * p2pi, points)
    y = _phase_curve(powers, 1.0, p2pi, phi0)
    y = y + sigma * np.random.default_rng(seed).standard_normal(points)
    with np.errstate(all="ignore"):
        start = calib._period_grid_search(powers, y)
    if start is None:
        return
    with np.errstate(all="ignore"):
        _assert_matches_scipy(_phase_curve, _phase_curve_jac, powers, y, start)


def test_curve_fit_failures_and_limits():
    x = np.linspace(0.0, 6.0, 20)
    y = _fringe(x, 100.0, 0.5, 0.3)
    # a parameter the model does not depend on: its variance is infinite
    with pytest.raises(RuntimeError, match="covariance"):
        curve_fit(lambda x, b, v, chi: _fringe(x, b, v, 0.3), x, y, p0=[90.0, 0.4, 0.0],
                  jac=lambda x, b, v, chi: _fringe_jac(x, b, v, 0.3) * [1.0, 1.0, 0.0],
                  maxfev=100)
    # a collapsed amplitude leaves the phase and the period undetermined
    with pytest.raises(RuntimeError, match="covariance"):
        curve_fit(_phase_curve, x, np.zeros_like(x), p0=[0.0, 2.0, 0.1],
                  jac=_phase_curve_jac, maxfev=100)
    # no more than maxfev evaluations of the model
    calls = []

    def counted(*args):
        calls.append(args)
        return _fringe(*args)

    with pytest.raises(RuntimeError, match="maxfev = 2"):
        curve_fit(counted, x, y, p0=[50.0, 0.9, 2.5], jac=_fringe_jac, maxfev=2)
    assert len(calls) == 2
    # as many data points as parameters: no residual variance to scale by
    with pytest.raises(RuntimeError, match="covariance"):
        curve_fit(_fringe, x[:3], y[:3], p0=[90.0, 0.4, 0.2], jac=_fringe_jac, maxfev=100)
    # a residual that is not finite at the start
    with pytest.raises(RuntimeError, match="not finite"):
        curve_fit(_fringe, x, y, p0=[np.inf, 0.4, 0.2], jac=_fringe_jac, maxfev=100)
