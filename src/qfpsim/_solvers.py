"""The root finder, least-squares fit and minimizer qfpsim calls, in numpy.

Importing ``scipy.optimize`` takes longer than numpy and the rest of a
cold command together, so qfpsim carries its own three solvers.  Each
keeps the name and the call form of the ``scipy`` function that it
replaces, and takes its objective first:

- ``brentq``: Brent's root finder (Brent, *Algorithms for Minimization
  without Derivatives*, 1973, ch. 4), ported line for line from scipy's
  ``brentq.c``, so it returns scipy's root bit for bit;
- ``curve_fit``: Gauss-Newton on the weighted residual with the caller's
  Jacobian, damped only where its step fails, and scipy's covariance rule;
- ``minimize``: dense BFGS with a strong-Wolfe line search, one loop that
  brackets the step and tries the secant zero of the slope (Nocedal and
  Wright, *Numerical Optimization*, 2nd ed., ch. 3 and 6), on an
  objective that returns its value and gradient, stopped by L-BFGS-B's
  tests.  A dense inverse Hessian costs O(n^2) per iteration, which at
  the 32 parameters of the MLE and the at most 255 phases of a retrieval
  is less than a limited-memory two-loop recursion costs in Python.
"""

import math
from types import SimpleNamespace

import numpy as np

_EPS = float(np.finfo(float).eps)


def _sign(value):
    return math.copysign(1.0, value)


def brentq(f, a, b, args=(), xtol=2e-12, rtol=4.0 * _EPS, maxiter=100):
    """A root of f(x, *args) in [a, b] by Brent's method, as scipy's
    ``brentq``: the root is within xtol + rtol |root| of the last iterate.

    Raises ValueError when f(a) and f(b) have the same sign or f returns
    NaN, and RuntimeError when maxiter iterations do not converge.
    """
    if not (xtol > 0.0 and rtol >= 4.0 * _EPS):
        raise ValueError(f"xtol = {xtol} must be positive and rtol = {rtol} at least 4 eps")

    def call(x):
        value = float(f(x, *args))
        if math.isnan(value):
            raise ValueError(f"the function value at x = {x} is NaN")
        return value

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _sign(fpre) == _sign(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and _sign(fpre) != _sign(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # C's x / 0 is an infinite or NaN step, which bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else None
        if stry is not None and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations, value is {xcur}")


def curve_fit(f, xdata, ydata, p0, *, jac, sigma=None, absolute_sigma=False, maxfev):
    """Least-squares p of f(xdata, *p) to ydata, and ``_covariance`` at p, in
    the call form of scipy's ``curve_fit``.  Gauss-Newton steps on r =
    (f(xdata, *p) - ydata) / sigma, min |J h + r| by ``lstsq``, each taken if
    it lowers |r|^2 by a quarter of what its linear model predicts; a failed
    step is damped to [J; sqrt(mu) D] h = [-r; 0], D the column norms of J
    (Marquardt, J. SIAM 11, 431, 1963), mu doubling per failure and halving
    after a damped step is taken.  Converged when the Gauss-Newton step
    predicts at most 1e-10 |r|^2, a step taken gained at most sqrt(eps)
    |r|^2, or a failed step is at rounding level (eps |r|^2, 1e-12 |D p|).
    RuntimeError after ``maxfev`` evaluations, or where r(p0), J or the
    covariance is not finite."""
    xdata, ydata = np.asarray(xdata, dtype=float), np.asarray(ydata, dtype=float)
    weight = np.ones_like(ydata) if sigma is None else 1.0 / np.asarray(sigma, dtype=float)

    def residual(p):
        return weight * (np.asarray(f(xdata, *p), dtype=float) - ydata)

    def jacobian(p):
        j = weight[:, None] * np.asarray(jac(xdata, *p), dtype=float)
        if not np.all(np.isfinite(j)):
            raise RuntimeError("the Jacobian is not finite")
        return j

    p = np.array(p0, dtype=float)
    r = residual(p)
    cost, nfev, mu = float(r @ r), 1, 1e-2
    if not math.isfinite(cost):
        raise RuntimeError("the residual at p0 is not finite")
    j = jacobian(p)
    while cost > 0.0:
        step = np.linalg.lstsq(j, -r, rcond=None)[0]
        if float(np.sum((j @ step) ** 2)) <= 1e-10 * cost:
            break
        damping = 0.0  # the mu of the step tried
        while True:
            if nfev >= maxfev:
                raise RuntimeError(f"no convergence within maxfev = {maxfev} evaluations")
            fitted = j @ step
            predicted = -float(fitted @ (2.0 * r + fitted))  # by the linear model
            trial = p + step
            r_trial = residual(trial)
            cost_trial, nfev = float(r_trial @ r_trial), nfev + 1
            if cost_trial < cost and cost - cost_trial >= 0.25 * predicted:
                break
            scale = np.linalg.norm(j, axis=0)
            if (predicted <= _EPS * cost
                    or np.linalg.norm(scale * step) <= 1e-12 * np.linalg.norm(scale * p)):
                return p, _covariance(j, cost, p.size, absolute_sigma)
            damping = 2.0 * damping if damping else mu
            step = np.linalg.lstsq(np.vstack((j, math.sqrt(damping) * np.diag(scale))),
                                   np.concatenate((-r, np.zeros(p.size))), rcond=None)[0]
        mu = damping / 2.0 if damping else mu
        reduction = cost - cost_trial
        p, r, cost, j = trial, r_trial, cost_trial, jacobian(trial)
        if reduction <= math.sqrt(_EPS) * (cost + reduction):
            break
    return p, _covariance(j, cost, p.size, absolute_sigma)


def _covariance(j, cost, n, absolute_sigma):
    """scipy's curve_fit covariance: (J^T J)^+ from the SVD of J, times
    |r|^2 / (m - n) unless absolute_sigma; RuntimeError where not finite."""
    m = len(j)
    _, s, vt = np.linalg.svd(j, full_matrices=False)
    if not (s.size == n and s[-1] > _EPS * max(m, n) * s[0]):
        raise RuntimeError("covariance of the parameters could not be estimated")
    with np.errstate(over="ignore", under="ignore"):
        pcov = (vt.T / s**2) @ vt
        if not absolute_sigma:
            pcov = pcov * (cost / (m - n)) if m > n else np.full((n, n), np.inf)
    if not np.all(np.isfinite(pcov)):
        raise RuntimeError("covariance of the parameters could not be estimated")
    return pcov


def _wolfe_search(evaluate, f0, slope0, first, c1=1e-4, c2=0.9, max_evals=40):
    """A step a > 0 with f(a) <= f0 + c1 a slope0 and |f'(a)| <= c2 |slope0|
    (strong Wolfe) by the search ``minimize`` describes, as (a, f, gradient,
    evaluations), ``evaluate(a)`` giving (f, slope, gradient); else the lowest
    step with sufficient decrease, or a = None, with f not finite if one was."""
    lo, hi, a = (0.0, f0, slope0, None), None, first  # lo: the lowest trial
    for evals in range(1, max_evals + 1):
        f, slope, grad = evaluate(a)
        if not math.isfinite(f):
            return None, f, None, evals
        # f0 + c1 a slope0 can round to f0, so the first trial may equal f0
        if f > f0 + c1 * a * slope0 or (evals > 1 and f >= lo[1]):
            hi = (a, f, slope, grad)
        elif abs(slope) <= -c2 * slope0:
            return a, f, grad, evals
        else:  # a new lowest trial; the old one bounds the bracket if f' turned upward
            if slope * ((a if hi is None else hi[0]) - lo[0]) >= 0.0:
                hi = lo
            lo = (a, f, slope, grad)
        if hi is None:  # not bracketed yet
            a *= 4.0
            continue
        rise = (hi[2] - lo[2]) / (hi[0] - lo[0])  # of f' across the bracket
        secant = lo[0] - lo[2] / rise if rise > 0.0 else 0.5 * (lo[0] + hi[0])
        a = sorted((0.9 * lo[0] + 0.1 * hi[0], secant, 0.1 * lo[0] + 0.9 * hi[0]))[1]
        if a in (lo[0], hi[0]):
            break
    return (lo[0] or None), lo[1], lo[3], evals


def minimize(fun, x0, args=(), *, options):
    """Minimize fun(x, *args), which returns the value and its gradient, by
    BFGS with a strong-Wolfe line search (Nocedal and Wright, ch. 3 and 6).

    The first step is along -g with length 1/|g|, as L-BFGS-B's, and the
    inverse Hessian starts as (y.s / y.y) I at the first update (their
    eq. 6.20).  The line search grows the step 4-fold until the Wolfe tests
    bracket it, then tries the slope's secant zero, clamped to the inner
    80 % of the bracket, or its midpoint where the slope does not increase
    across it.  ``options`` holds L-BFGS-B's stopping rules: ``ftol``, the
    relative reduction (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) at or below
    which the run stops, ``gtol``, the largest gradient entry at or below
    which it stops, and ``maxiter``.  A start whose gradient already passes
    ``gtol`` comes back unchanged.  A run whose line search fails from a
    fresh Hessian, or that meets a value that is not finite, ends with
    success False at its last finite point and raises nothing.

    Returns a namespace of x, fun, jac, nit, nfev, success and message.
    """
    ftol, gtol, maxiter = options["ftol"], options["gtol"], options["maxiter"]
    x = np.array(x0, dtype=float)
    f, g = fun(x, *args)
    f, nfev, nit, inv_hess = float(f), 1, 0, None
    if not np.all(np.isfinite(g)):
        f = math.nan

    def result(success, message):
        return SimpleNamespace(x=x, fun=f, jac=g, nit=nit, nfev=nfev,
                               success=success, message=message)

    if not math.isfinite(f):
        return result(False, "the objective or its gradient is not finite at x0")
    while True:
        if not np.max(np.abs(g), initial=0.0) > gtol:
            return result(True, "the largest gradient entry is at most gtol")
        if nit >= maxiter:
            return result(False, "maxiter iterations reached")
        direction = -g if inv_hess is None else -(inv_hess @ g)
        slope0 = float(g @ direction)
        if inv_hess is not None and not slope0 < 0.0:  # not a descent direction
            inv_hess, direction, slope0 = None, -g, -float(g @ g)
        first = 1.0 / math.sqrt(-slope0) if inv_hess is None else 1.0

        def evaluate(a):
            f_a, g_a = fun(x + a * direction, *args)
            slope = float(g_a @ direction)
            return (float(f_a) if math.isfinite(slope) else math.nan), slope, g_a

        alpha, f_new, g_new, evals = _wolfe_search(evaluate, f, slope0, first)
        nfev += evals
        if alpha is None:
            if math.isfinite(f_new) and inv_hess is not None:
                inv_hess = None  # retry once from a fresh Hessian
                continue
            return result(False, "the line search failed" if math.isfinite(f_new)
                          else "the objective or its gradient is not finite")
        step, change = alpha * direction, g_new - g
        x, g, f_old, f, nit = x + step, g_new, f, f_new, nit + 1
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            return result(True, "the relative reduction of f is at most ftol")
        curvature = float(change @ step)
        if curvature > 0.0:  # the Wolfe conditions make it so, up to rounding
            if inv_hess is None:
                inv_hess = np.eye(x.size) * (curvature / float(change @ change))
            h_change = inv_hess @ change
            rho = 1.0 / curvature
            # H+ = (I - rho s y^T) H (I - rho y s^T) + rho s s^T
            inv_hess += (rho * (1.0 + rho * float(change @ h_change)) * np.outer(step, step)
                         - rho * (np.outer(h_change, step) + np.outer(step, h_change)))
