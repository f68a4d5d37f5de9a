"""The root finder, least-squares fit and minimizer qfpsim calls, in numpy.

Importing ``scipy.optimize`` takes longer than numpy and the rest of a
cold command together, so qfpsim carries its own three solvers.  Each
keeps the name, the call form and the stopping rules of the ``scipy``
function that it replaces, and takes its objective first:

- ``brentq``: Brent's root finder (Brent, *Algorithms for Minimization
  without Derivatives*, 1973, ch. 4), ported line for line from scipy's
  ``brentq.c``, so it returns scipy's root bit for bit;
- ``curve_fit``: Levenberg-Marquardt on the weighted residual with the
  caller's Jacobian, in MINPACK's trust region with its scaling and
  stopping tests, so it makes scipy's evaluations, and scipy's
  covariance rule;
- ``minimize``: dense BFGS with a strong-Wolfe line search (Nocedal and
  Wright, *Numerical Optimization*, 2nd ed., ch. 3 and 6) on an
  objective that returns its value and gradient, stopped by L-BFGS-B's
  tests.  A dense inverse Hessian costs O(n^2) per iteration, which at
  the 32 parameters of the MLE and the at most 255 phases of a retrieval
  is less than a limited-memory two-loop recursion costs in Python.
"""

import math
from types import SimpleNamespace

import numpy as np

_EPS = float(np.finfo(float).eps)
# MINPACK's default tolerances on the relative reduction of the sum of
# squares and the relative step
_LSQ_TOL = math.sqrt(_EPS)


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


def _lm_step(w, b, delta):
    """MINPACK's lmpar on the eigendecomposition V diag(w) V^T of the scaled
    normal matrix D^-1 J^T J D^-1, with b = V^T D^-1 J^T r: the Levenberg-
    Marquardt parameter par >= 0 and the scaled step's coordinates along V,
    -b / (w + par), whose norm is within a tenth of delta.  par = 0, the
    Gauss-Newton step, when its norm is at most 1.1 delta; that step drops
    the directions whose w is at rounding level, eps n max(w).

    par solves 1/delta = 1/|z(par)| by Newton's method, which after its
    first step approaches the root from above (Moré, Lecture Notes in
    Mathematics 630, 1978).
    """
    coords = np.zeros_like(b)
    kept = w > _EPS * w.size * w[-1]
    w, b = w[kept], b[kept]
    coords[kept] = -b / w
    norm, par = math.sqrt(float(coords @ coords)), 0.0
    if norm <= 1.1 * delta:
        return par, coords
    b2 = b * b
    for _ in range(10):
        slope = -float(np.sum(b2 / (w + par) ** 3)) / norm  # d|z| / d par
        if not slope < 0.0:
            break
        par = max(par - (1.0 / delta - 1.0 / norm) * norm * norm / slope, 0.0)
        coords[kept] = -b / (w + par)
        norm = math.sqrt(float(coords @ coords))
        if abs(norm - delta) <= 0.1 * delta:
            break
    return par, coords


def curve_fit(f, xdata, ydata, p0, *, jac, sigma=None, absolute_sigma=False, maxfev):
    """Least-squares parameters of f(xdata, *p) to ydata, and their
    covariance, as scipy's ``curve_fit`` with a callable ``jac`` returns them.

    Minimizes |r|^2, r = (f(xdata, *p) - ydata) / sigma, from p0 by
    MINPACK's lmder (Moré, Garbow and Hillstrom, ANL-80-74, 1980), with
    jac(xdata, *p) the Jacobian of f: a trust region of radius delta in the
    parameters scaled by D, the largest column norms of J so far, whose
    step is the Gauss-Newton step or a Levenberg-Marquardt step of scaled
    length delta (_lm_step, from the eigendecomposition of the scaled
    normal matrix in place of MINPACK's pivoted QR).  It stops, as lmder
    with scipy's defaults, when the actual and the predicted relative
    reductions of |r|^2 are both at most sqrt(eps), when delta is at most
    sqrt(eps) of |D p|, or where r or its gradient is 0.

    The covariance is scipy's rule: the pseudo-inverse (J^T J)^+ from the
    SVD of the weighted Jacobian last taken, as scipy's is from MINPACK's
    last Jacobian, scaled by the residual variance |r|^2 / (m - n) unless
    ``absolute_sigma``.  Raises RuntimeError when the fit makes ``maxfev``
    evaluations of f without converging, when rounding stops it first, or
    when the parameters or their covariance are not finite: a singular
    value of J at or below scipy's cut-off, eps max(m, n) s_max, is a
    direction that the data do not fix, whose variance is infinite.
    """
    xdata = np.asarray(xdata, dtype=float)
    ydata = np.asarray(ydata, dtype=float)
    weight = None if sigma is None else 1.0 / np.asarray(sigma, dtype=float)

    def residual(p):
        r = np.asarray(f(xdata, *p), dtype=float) - ydata
        return r if weight is None else weight * r

    def jacobian(p):
        j = np.asarray(jac(xdata, *p), dtype=float)
        return j if weight is None else weight[:, None] * j

    p = np.array(p0, dtype=float)
    r = residual(p)
    fnorm, nfev, first, converged, j = math.sqrt(float(r @ r)), 1, True, False, None
    if not math.isfinite(fnorm):
        raise RuntimeError("the residual at p0 is not finite")
    while not converged and fnorm > 0.0:
        j = jacobian(p)
        hess, grad = j.T @ j, j.T @ r
        if not grad.any():  # r is stationary: MINPACK's zero cosine test
            break
        col_norms = np.sqrt(hess.diagonal())
        if first:
            diag = np.where(col_norms > 0.0, col_norms, 1.0)
            xnorm = math.sqrt(float((diag * p) @ (diag * p)))
            delta = 100.0 * xnorm or 100.0
        diag = np.maximum(diag, col_norms)
        try:
            gauss_newton = np.linalg.solve(hess, -grad)
            gn_norm = math.sqrt(float((diag * gauss_newton) @ (diag * gauss_newton)))
        except np.linalg.LinAlgError:  # singular: _lm_step's step drops a direction
            gauss_newton = None
        eigen = None
        ratio = 0.0
        while ratio < 1e-4:  # until a step lowers |r|
            if gauss_newton is not None and gn_norm <= 1.1 * delta:
                par, step, pnorm = 0.0, gauss_newton, gn_norm
                fitted = -float(grad @ step)  # |J h|^2 for the Gauss-Newton h
            else:
                if eigen is None:  # the scaled normal matrix, once per Jacobian
                    w, v = np.linalg.eigh(hess / np.outer(diag, diag))
                    eigen = w, (grad / diag) @ v, v
                w, b, v = eigen
                par, coords = _lm_step(w, b, delta)
                step = (v @ coords) / diag
                pnorm = math.sqrt(float(coords @ coords))
                fitted = float(np.maximum(w, 0.0) @ (coords * coords))
            if first:
                delta = min(delta, pnorm)
            trial = p + step
            r_trial = residual(trial)
            nfev += 1
            fnorm1 = math.sqrt(float(r_trial @ r_trial))
            # relative reductions of |r|^2, actual and predicted by the linear model
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            temp1 = math.sqrt(max(fitted, 0.0)) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1 * temp1 + 2.0 * temp2 * temp2
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
            if ratio >= 1e-4:
                p, r, fnorm, first = trial, r_trial, fnorm1, False
                xnorm = math.sqrt(float((diag * p) @ (diag * p)))
            if ((abs(actred) <= _LSQ_TOL and prered <= _LSQ_TOL and ratio <= 2.0)
                    or delta <= _LSQ_TOL * xnorm):
                converged = True
                break
            if nfev >= maxfev:
                raise RuntimeError(f"no convergence within maxfev = {maxfev} evaluations")
            if ((abs(actred) <= _EPS and prered <= _EPS and ratio <= 2.0)
                    or delta <= _EPS * xnorm):
                raise RuntimeError("rounding stops any further reduction of the residual")
    j = jacobian(p) if j is None else j
    return p, _covariance(j, fnorm * fnorm, p.size, absolute_sigma)


def _covariance(j, cost, n, absolute_sigma):
    """scipy's curve_fit covariance: (J^T J)^+ from the SVD of J, times
    |r|^2 / (m - n) unless absolute_sigma; RuntimeError where not finite."""
    m = len(j)
    if not np.all(np.isfinite(j)):
        raise RuntimeError("the Jacobian is not finite")
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


def _cubic_step(a, fa, da, b, fb, db):
    """Minimizer of the cubic through (a, fa) and (b, fb) with slopes da
    and db, or None (Nocedal and Wright, eq. 3.59)."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if not disc >= 0.0:
        return None
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = db - da + 2.0 * d2
    return b - (b - a) * (db + d2 - d1) / denom if denom else None


def _wolfe_search(evaluate, f0, slope0, first, c1=1e-4, c2=0.9, max_evals=40):
    """A step length a > 0 along the search direction with the strong Wolfe
    conditions f(a) <= f0 + c1 a slope0 and |f'(a)| <= c2 |slope0|
    (Nocedal and Wright, algorithms 3.5 and 3.6, with cubic interpolation).

    ``evaluate(a)`` returns (f, slope, gradient) at step a.  Returns
    (a, f, gradient, evaluations).  A search that cannot meet the curvature
    condition returns its lowest step with sufficient decrease, if any;
    a = None when it has none, with f not finite when an evaluation was.
    """
    prev = lo = (0.0, f0, slope0, None)
    hi, a, widths = None, first, [math.inf, math.inf]
    for evals in range(1, max_evals + 1):
        trial = (a, *evaluate(a))
        f, slope = trial[1], trial[2]
        if not math.isfinite(f):
            return None, f, None, evals
        if hi is None:  # bracketing phase
            if f > f0 + c1 * a * slope0 or (evals > 1 and f >= prev[1]):
                lo, hi = prev, trial
            elif abs(slope) <= -c2 * slope0:
                return a, f, trial[3], evals
            elif slope >= 0.0:
                lo, hi = trial, prev
            else:
                prev = lo = trial
                a *= 4.0
                continue
        else:  # zoom phase
            if f > f0 + c1 * a * slope0 or f >= lo[1]:
                hi = trial
            elif abs(slope) <= -c2 * slope0:
                return a, f, trial[3], evals
            else:
                if slope * (hi[0] - lo[0]) >= 0.0:
                    hi = lo
                lo = trial
        # the cubic's minimizer inside the bracket, or its midpoint when the
        # bracket has not shrunk to 0.66 of its width two trials before
        # (Moré and Thuente, ACM TOMS 20, 286, 1994)
        width = abs(hi[0] - lo[0])
        a = _cubic_step(*lo[:3], *hi[:3])
        if (a is None or not min(lo[0], hi[0]) < a < max(lo[0], hi[0])
                or width > 0.66 * widths[0]):
            a = 0.5 * (lo[0] + hi[0])
        widths = [widths[1], width]
        if a in (lo[0], hi[0]):
            break
    return (lo[0] or None), lo[1], lo[3], evals


def minimize(fun, x0, args=(), *, options):
    """Minimize fun(x, *args), which returns the value and its gradient, by
    BFGS with a strong-Wolfe line search (Nocedal and Wright, ch. 6).

    The first step is along -g with length 1/|g|, as L-BFGS-B's, and the
    inverse Hessian starts as (y.s / y.y) I at the first update (their
    eq. 6.20).  ``options`` holds L-BFGS-B's stopping rules: ``ftol``, the
    relative reduction (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) at or below
    which the run stops, ``gtol``, the largest gradient entry at or below
    which it stops, and ``maxiter``.  A start whose gradient already
    passes ``gtol`` comes back unchanged.  A run whose
    line search fails from a fresh Hessian, or that meets a value that is
    not finite, ends with success False at its last finite point and
    raises nothing.

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
