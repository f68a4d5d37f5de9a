"""qfpsim's numpy solvers against scipy's, which stay the independent reference.

``brentq`` is a port of scipy's and must return its root bit for bit;
``minimize`` must reach what L-BFGS-B reaches on the likelihoods it
serves, and ``curve_fit`` the optimum that scipy's ``least_squares``
reaches, with its covariance.
"""

import warnings

import numpy as np
import pytest
import scipy.optimize as so
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfpsim import calib, qfp, tomo
from qfpsim._solvers import brentq, curve_fit, minimize
from qfpsim.errors import FitFailureError, OutOfRangeError
from qfpsim.tomo import carve_bell_state, simulate_counts

EPS = np.finfo(float).eps
# scipy's default stopping rules of L-BFGS-B
LBFGSB = {"ftol": 2.220446049250313e-09, "gtol": 1e-5, "maxiter": 15000}


def _lbfgsb(fun, x0, args=(), *, options):
    """scipy's L-BFGS-B in the call form of qfpsim's minimize."""
    return so.minimize(fun, x0, args=args, jac=True, method="L-BFGS-B", options=options)


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
# BFGS with a cubic-interpolation zoom stopped on ftol 1.37e-2 above L-BFGS-B here
@example((16.71484375, 4.4421671599083545, 41.65625, 5.375, 16777216))
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
# two draws whose first run stops short of its certificate
@example((19.75, 6.0, 5.0, 0.0, 177))
@example((16.0625, 5.65625, 9.0, 5.625, 222))
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


def _assert_reaches_the_optimum(f, jac, x, y, p0, sigma=None, absolute_sigma=False):
    popt, pcov = curve_fit(f, x, y, p0=p0, jac=jac, sigma=sigma, absolute_sigma=absolute_sigma,
                           maxfev=20000)
    w = np.ones_like(y) if sigma is None else 1.0 / sigma

    def optimum(start):  # scipy's least_squares, to tolerances far below curve_fit's
        return so.least_squares(lambda p: w * (f(x, *p) - y), start,
                                jac=lambda p: w[:, None] * jac(x, *p), method="lm",
                                ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=100000)

    # no higher |r|^2 than the optimum from the same start, up to the
    # rounding of the weighted residuals, about 16 eps |w y| each, and to
    # the stopping rule: a step gaining at most sqrt(eps) of |r|^2 ends the
    # fit, which can leave as much again on slowly converging, noisy fits
    norm = float(np.linalg.norm(w * (f(x, *popt) - y)))
    rounding = 16.0 * EPS * np.abs(w * y).max() * np.sqrt(x.size)
    assert norm**2 <= (2.0 * optimum(p0).cost * (1.0 + np.sqrt(EPS))
                       + rounding * (2.0 * norm + rounding))
    # near the optimum of the basin it ended in, so up to about eps^(1/4) |r|
    # from it in the metric of J
    ref = optimum(popt)
    assert np.linalg.norm(ref.jac @ (popt - ref.x)) <= 1e-4 * np.sqrt(2.0 * ref.cost) + rounding
    # scipy's covariance rule at the parameters returned, where J is well
    # conditioned: (J^T J)^-1, times |r|^2 / (m - n) unless absolute_sigma
    j = w[:, None] * jac(x, *popt)
    s = np.linalg.svd(j, compute_uv=False)
    if s[-1] > 1e-4 * s[0]:
        expected = np.linalg.inv(j.T @ j)
        if not absolute_sigma:
            expected *= norm**2 / (x.size - len(p0))
        assert np.allclose(pcov, expected, rtol=1e-8, atol=1e-8 * np.abs(expected).max())


@settings(max_examples=100, deadline=None)
@given(st.integers(5, 40), st.floats(2.0, 6.0), st.floats(0.05, 0.99),
       st.floats(-np.pi, np.pi), st.integers(0, 2**32 - 1))
# lmder's covariance, from its Jacobian before its last step, is 1e-3 off here
@example(points=25, log_counts=2.0, visibility=0.05, chi=0.046875, seed=25)
def test_curve_fit_reaches_the_optimum_on_fringes(points, log_counts, visibility, chi, seed):
    # Poisson counts with shot-noise weights, from tomo.fit_visibility's
    # former start (mean, spread, phase of the peak), away from the optimum
    phis = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    counts = np.random.default_rng(seed).poisson(
        _fringe(phis, 10.0**log_counts, visibility, chi)).astype(float)
    b0 = counts.mean()
    if np.ptp(counts) == 0.0 or b0 == 0.0:
        return
    p0 = [b0, min(np.ptp(counts) / (2.0 * b0), 0.99), -phis[np.argmax(counts)]]
    _assert_reaches_the_optimum(_fringe, _fringe_jac, phis, counts, p0,
                                sigma=np.sqrt(np.maximum(counts, 1.0)), absolute_sigma=True)


@settings(max_examples=100, deadline=None)
@given(st.integers(8, 40), st.floats(0.0, 0.2), st.floats(0.5, 2.0),
       st.floats(-np.pi, np.pi), st.floats(1.2, 3.0), st.integers(0, 2**32 - 1))
# and 6.5e-5 off here, where also its port's differed from scipy's
@example(8, 0.125, 1.0, 0.0, 3.0, 672)
def test_curve_fit_reaches_the_optimum_on_phase_curves(points, sigma, p2pi, phi0, periods,
                                                       seed):
    # as calib.fit_phase_curve fits them: from its grid search's start
    powers = np.linspace(0.0, periods * p2pi, points)
    y = _phase_curve(powers, 1.0, p2pi, phi0)
    y = y + sigma * np.random.default_rng(seed).standard_normal(points)
    with np.errstate(all="ignore"):
        start = calib._period_grid_search(powers, y)
    if start is None:
        return
    with np.errstate(all="ignore"):
        _assert_reaches_the_optimum(_phase_curve, _phase_curve_jac, powers, y, start)


@settings(max_examples=100, deadline=None)
@given(st.integers(5, 40), st.floats(0.0, 6.0), st.floats(0.0, 0.99),
       st.floats(-np.pi, np.pi), st.integers(0, 2**32 - 1))
@example(5, 0.0, 0.5, 0.0, 62696619)  # every count 1: a flat fringe
def test_fit_visibility_is_no_worse_than_scipy_from_the_former_starts(points, log_counts,
                                                                     visibility, chi, seed):
    # fit_visibility starts at its weighted linear least squares; scipy's
    # curve_fit starts from its former start (mean, spread, phase of the
    # peak) and four more phases
    phis = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    counts = np.random.default_rng(seed).poisson(
        _fringe(phis, 10.0**log_counts, visibility, chi)).astype(float)
    if np.ptp(counts) <= tomo._FLAT_FRINGE_RTOL * np.abs(counts).max():
        # a flat fringe leaves the phase undetermined, and is refused
        with pytest.raises(FitFailureError, match="flat"):
            tomo.fit_visibility(phis, counts)
        return
    sigma = np.sqrt(np.maximum(counts, 1.0))
    b0 = counts.mean()
    starts = [] if b0 == 0.0 else [[b0, min(np.ptp(counts) / (2.0 * b0), 0.99),
                                    -phis[np.argmax(counts)]]]
    starts += [[b0, 0.5, phase] for phase in (0.0, np.pi / 2.0, np.pi, -np.pi / 2.0)]
    fits = []
    for p0 in starts:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", so.OptimizeWarning)
            try:
                fits.append(so.curve_fit(_fringe, phis, counts, p0=p0, jac=_fringe_jac,
                                         sigma=sigma, absolute_sigma=True, maxfev=20000))
            except RuntimeError:
                continue
    try:
        fit = tomo.fit_visibility(phis, counts)
    except FitFailureError:
        # only where no start gives V a finite uncertainty
        assert not any(np.all(np.isfinite(pcov)) for _, pcov in fits)
        return
    def norm(b, v, chi):
        return np.linalg.norm((_fringe(phis, b, v, chi) - counts) / sigma)

    best = min((norm(*popt) for popt, _ in fits), default=np.inf)
    rounding = 16.0 * EPS * np.abs(counts / sigma).max() * np.sqrt(points)
    assert norm(fit.baseline, fit.visibility, fit.phase) <= best * (1.0 + 1e-9) + rounding


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
