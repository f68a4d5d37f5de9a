"""Two-qubit frequency-bin state tomography: projectors, fringes, MLE.

Each photon of a bin-pair qubit is analyzed either in the bin basis
(which bin the photon occupies) or in a superposition basis realized by
mixing the two bins on a modulator and detecting one output bin.  The
superposition projector is lossy: its success amplitude is set by the
mixer's effective splitting at DEFAULT_MEASUREMENT_DEPTH.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from ._solvers import curve_fit, minimize
from .errors import FitFailureError, InvalidArgumentError
from .eom import bessel_row
from .rings import reduce_phase

DEFAULT_MEASUREMENT_DEPTH = 0.8169
# runs of the MLE after the first that may continue an uncertified one
MLE_RESTARTS = 3
# Frank-Wolfe gap (NLL units) at or below which a run's end is taken as the
# MLE and no further run follows
MLE_GAP_TOL = 0.1
# ridge of each run's whitening, as a fraction of the Fisher information's
# mean eigenvalue: it keeps the gauge directions of A, on which the Fisher
# information is 0, and the directions the data barely fix, at a finite scale
_WHITEN_RIDGE = 0.1
# how far a density matrix may miss Hermiticity, unit trace and positivity
_DENSITY_TOL = 1e-8
# a fringe whose peak-to-peak is at most this fraction of its peak is flat
# to rounding: the expected fringe of the maximally mixed state comes out
# flat only to a few ulp, and a fit to that noise leaves the phase undetermined
_FLAT_FRINGE_RTOL = 64 * np.finfo(float).eps


@functools.cache
def superposition_efficiency() -> float:
    """Success amplitude 2 J0 J1 of the single-modulator analyzer."""
    row = bessel_row(1, DEFAULT_MEASUREMENT_DEPTH)
    return float(2.0 * row[0] * row[1])


def _superposition(phi) -> np.ndarray:
    """Superposition analyzer POVM element eta |v><v|, with
    |v> = (|0> + e^{i phi} |1>)/sqrt(2) and eta = (2 J0 J1)^2 <= 1; for an
    array of phases, the stack of their elements."""
    e = np.exp(1j * np.asarray(phi, dtype=float))
    v = np.stack(np.broadcast_arrays(1.0, e), axis=-1) / np.sqrt(2.0)
    eta = superposition_efficiency() ** 2
    return eta * (v[..., :, None] * v.conj()[..., None, :])


@functools.cache
def _canonical_projectors() -> np.ndarray:
    """The 16 joint POVM elements: each photon analyzed in bin 0, in bin 1
    (ideal projectors) or in the superpositions at phi = 0 and pi/2.
    Read-only: every caller, and every record, shares the one stack."""
    singles = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                        _superposition(0.0), _superposition(np.pi / 2.0)])
    pis = np.kron(singles[:, None], singles[None, :]).reshape(16, 4, 4)
    pis.setflags(write=False)
    return pis


def _rates(rho: np.ndarray, pis: np.ndarray) -> np.ndarray:
    """Tr(rho Pi_k), the fractional coincidence rate, for each projector of the
    stack, clipped at 0 since each is a probability: the product's rounding
    can leave a pure state's zero rate at -1e-33, a negative Poisson mean."""
    return np.maximum((pis.reshape(len(pis), 16) @ rho.T.ravel()).real, 0.0)


def _check_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidArgumentError("density matrix must be 4x4")
    if not np.allclose(rho, rho.conj().T, atol=_DENSITY_TOL):
        raise InvalidArgumentError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > _DENSITY_TOL:
        raise InvalidArgumentError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -_DENSITY_TOL:
        raise InvalidArgumentError("density matrix must be positive semidefinite")
    return rho


def carve_bell_state(suppression_db: float, bell_phase: float = 0.0) -> np.ndarray:
    """Two-qubit state carved from a comb pair with finite line suppression.

    The residual unsuppressed background acts as white noise: the state is
    (1 - p) |psi><psi| + p I/4 with p = 10^(-suppression_db / 10) and
    |psi> = (|00> + e^{i bell_phase} |11>)/sqrt(2).
    """
    if suppression_db < 0:
        raise InvalidArgumentError("suppression must be non-negative dB")
    p = 10.0 ** (-suppression_db / 10.0)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0 / np.sqrt(2.0)
    psi[3] = np.exp(1j * bell_phase) / np.sqrt(2.0)
    rho = (1.0 - p) * np.outer(psi, psi.conj()) + p * np.eye(4) / 4.0
    return _check_density(rho)


def bell_fringe(rho: np.ndarray, phis) -> np.ndarray:
    """Coincidence fringe vs the signal analyzer phase, idler phase at 0."""
    rho = _check_density(rho)
    signal = _superposition(np.atleast_1d(phis))
    return _rates(rho, np.kron(signal, _superposition(0.0)))


@dataclass(frozen=True)
class VisibilityFit:
    """Sinusoidal fringe fit y = B (1 + V cos(x + chi))."""

    baseline: float
    visibility: float
    phase: float
    visibility_sigma: float

    @property
    def violates_classical_bound(self) -> bool:
        """V exceeds the classical bound 1/sqrt(2) by more than three sigma."""
        return self.visibility - 3.0 * self.visibility_sigma > 1.0 / np.sqrt(2.0)


def fit_visibility(phis, counts) -> VisibilityFit:
    """Fit a two-photon interference fringe and report V with uncertainty.

    Each point is weighted by its shot noise sqrt(max(counts, 1)).  The
    model b (1 + v cos(x + chi)) is linear in (b, b v cos chi, b v sin chi),
    so its weighted linear least squares is the optimum, which the
    nonlinear fit confirms and gives the covariance of.  Requires at least
    five phase points; raises FitFailureError when the fringe is flat to
    rounding (``_FLAT_FRINGE_RTOL``), has a zero constant term or no first
    harmonic above rounding, or when the fit cannot converge or the
    covariance is not finite (a flat fringe leaves the phase, and so V's
    uncertainty, undetermined).
    """
    phis = np.asarray(phis, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if (phis.shape != counts.shape or phis.size < 5
            or not (np.all(np.isfinite(phis)) and np.all(np.isfinite(counts)))):
        raise InvalidArgumentError("need matching finite arrays with >= 5 fringe points")
    if np.ptp(counts) <= _FLAT_FRINGE_RTOL * np.abs(counts).max():
        raise FitFailureError("fringe fit failed: the fringe is flat, so its phase is "
                              "undetermined")
    sigma = np.sqrt(np.maximum(counts, 1.0))

    def model(x, b, v, chi):
        return b * (1.0 + v * np.cos(x + chi))

    def jac(x, b, v, chi):
        # analytic: a forward difference in chi has a zero step at chi = 0
        c = np.cos(x + chi)
        return np.column_stack((1.0 + v * c, b * c, -b * v * np.sin(x + chi)))

    design = np.column_stack((np.ones_like(phis), np.cos(phis), -np.sin(phis))) / sigma[:, None]
    b, bv_cos, bv_sin = np.linalg.lstsq(design, counts / sigma, rcond=None)[0]
    bv = float(np.hypot(bv_cos, bv_sin))
    if b == 0.0 or not bv > _FLAT_FRINGE_RTOL * abs(b):
        raise FitFailureError("fringe fit failed: the fringe has a zero constant term or no "
                              "first harmonic above rounding")
    try:
        popt, pcov = curve_fit(model, phis, counts, sigma=sigma, jac=jac, absolute_sigma=True,
                               p0=[b, bv / b, float(np.arctan2(bv_sin, bv_cos))],
                               maxfev=20000)
    except RuntimeError as exc:  # no convergence, or a covariance that is not finite
        raise FitFailureError(f"fringe fit failed: {exc}") from exc
    b, v, chi = popt
    if b < 0:
        b, v = -b, -v
    if v < 0:
        v, chi = -v, chi + np.pi
    chi = reduce_phase(chi)
    return VisibilityFit(float(b), float(v), chi, float(np.sqrt(pcov[1, 1])))


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts observed (or expected) at one joint setting, whose 4x4 POVM
    element is ``projector``."""

    projector: np.ndarray = field(repr=False, compare=False)
    counts: float
    shots: float
    accidental: float = 0.0


def simulate_counts(rho: np.ndarray, shots: float, accidental_fraction: float = 0.0,
                    rng: np.random.Generator = None) -> list:
    """Coincidence records over the canonical settings.

    Expected counts are shots * rate + shots * accidental_fraction; with a
    generator supplied they are Poisson sampled, otherwise the expected
    values are returned exactly (deterministic mode).
    """
    pis = _canonical_projectors()
    acc = shots * accidental_fraction
    means = shots * _rates(_check_density(rho), pis) + acc
    counts = means if rng is None else rng.poisson(means)
    return [MeasurementRecord(pi, float(n), shots, acc) for pi, n in zip(pis, counts)]


def _rho_of(params: np.ndarray) -> np.ndarray:
    """rho = A^dag A / Tr(A^dag A), A the complex 4x4 matrix whose entries,
    row by row, are the (Re, Im) pairs of the 32 parameters."""
    a = params.view(complex).reshape(4, 4)
    g = a.conj().T @ a
    return g / np.trace(g).real


def _linear_inversion(pis: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Least-squares rho with Tr(rho Pi_k) = rates_k, ignoring positivity;
    the MLE seed."""
    # Tr(rho Pi) = sum_ij conj(Pi_ij) rho_ij for Hermitian Pi
    x, *_ = np.linalg.lstsq(pis.conj().reshape(len(pis), 16), rates, rcond=None)
    rho = x.reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    return rho / tr if abs(tr) > 1e-12 else np.eye(4, dtype=complex) / 4.0


def _poisson_nll(rates, counts, shots, accidentals):
    """Poisson NLL of the records at the fractional rates from the saturated
    model, sum_k mu_k - n_k + n_k log(n_k/mu_k), 0 log 0 = 0 (half the
    deviance), and its derivative in each rate, (1 - n_k/mu_k) * shots_k."""
    mu = np.maximum(shots * rates + accidentals, 1e-12)
    nll = np.sum(mu - counts + counts * np.log(np.maximum(counts, 1e-300) / mu))
    return float(nll), (1.0 - counts / mu) * shots


def _negloglike_and_drho(rho, pis, counts, shots, accidentals):
    """Poisson negative log-likelihood of the records at rho, and its
    gradient in rho, sum_k (1 - counts_k/mu_k) * shots * Pi_k."""
    nll, w = _poisson_nll(_rates(rho, pis), counts, shots, accidentals)
    return nll, (w @ pis.reshape(len(pis), 16)).reshape(4, 4)


def _negloglike_and_grad(params, pis, counts, shots, accidentals):
    """Poisson negative log-likelihood of the records at rho(A(params)), and
    its gradient in the 32 parameters through rho = A^dag A / p p, as floats
    2 (A D - Tr(D rho) A) / p p, D the gradient in rho (_negloglike_and_drho)."""
    tra = params @ params  # Tr(A^dag A)
    if tra <= 0:
        return 1e18, np.zeros(32)
    a = params.view(complex).reshape(4, 4)
    flat = pis.reshape(len(pis), 16)
    rates = (flat @ (a.T @ a.conj()).ravel()).real / tra  # A^T conj(A) = (A^dag A)^T
    nll, w = _poisson_nll(rates, counts, shots, accidentals)
    return nll, (2.0 / tra) * ((a @ (w @ flat).reshape(4, 4)).ravel().view(float)
                               - (w @ rates) * params)


def _whitening(params, pis, shots, accidentals) -> np.ndarray:
    """Upper-triangular R with R^T R = G + _WHITEN_RIDGE tr(G)/32 I, G the
    Fisher information of the Poisson records in the 32 parameters at
    ``params``: G = J^T diag(1/mu) J with J_k = d mu_k / dp
    = 2 shots_k (b_k - rate_k p) / p p, b_k = A Pi_k as floats, so that
    rate_k = b_k p / p p.  The identity where G's trace is not finite and positive."""
    with np.errstate(all="ignore"):
        tra = params @ params
        b = (params.view(complex).reshape(4, 4) @ pis).reshape(len(pis), 16).view(float)
        rates = b @ params / tra
        mu = np.maximum(shots * rates + accidentals, 1e-12)
        jac = (2.0 * shots / tra)[:, None] * (b - rates[:, None] * params)
        fisher = (jac.T / mu) @ jac
        scale = _WHITEN_RIDGE * np.trace(fisher) / 32.0
    if not (np.isfinite(scale) and scale > 0.0 and np.isfinite(fisher).all()):
        return np.eye(32)
    try:
        return np.linalg.cholesky(fisher + scale * np.eye(32), upper=True)
    except np.linalg.LinAlgError:
        return np.eye(32)


def _whitened_negloglike_and_grad(q, x0, r_inv, offset, pis, counts, shots, accidentals):
    """_negloglike_and_grad at p = x0 + R^-1 q, plus ``offset``, with the
    gradient in q, R^-T grad: q = R (p - x0) is the whitened step from the
    start x0, so a start that the minimizer does not move comes back bit for bit."""
    nll, grad = _negloglike_and_grad(x0 + r_inv @ q, pis, counts, shots, accidentals)
    return nll + offset, grad @ r_inv


def mle_reconstruct(records: list) -> np.ndarray:
    """Maximum-likelihood density matrix from coincidence records.

    rho = A^dag A / Tr(A^dag A) with A a full complex 4x4 matrix (32 real
    parameters p = A.ravel().view(float)) guarantees physicality, and the
    rates Tr(rho Pi_k) are those of simulation and of the certificate,
    with the gradient in p by the chain rule through rho.  The Poisson
    log-likelihood is maximized by BFGS using the analytic gradient, from
    the linear-inversion seed U diag(w) U^dag as A = U diag(sqrt(w)) U^dag
    (w floored at 1e-9, then scaled to unit sum).  The floor keeps the
    seed's A full rank: the gradient is A times a matrix, so u A = 0 gives
    u grad = 0 and A could never gain rank.
    Each run from a start x0 is on whitened parameters q = R (p - x0), R
    from the Fisher information at x0 (_whitening), so that BFGS starts on
    a nearly round problem and needs fewer iterations (Nocedal and Wright,
    Numerical Optimization, 2nd ed., ch. 6-7); the ridge _WHITEN_RIDGE keeps
    R invertible on the directions the likelihood does not fix.
    Each run's end is certified by its Frank-Wolfe gap
    Tr(D rho) - lambda_min(D), D the NLL's gradient in rho: the NLL is
    convex in rho, so f(rho) <= f* + gap (Jaggi, ICML 2013).  The first run
    minimizes the full NLL, _poisson_nll + sum_k n_k - n_k log n_k, to a
    relative reduction of 1e-14; while the gap exceeds MLE_GAP_TOL, up to
    MLE_RESTARTS more runs continue from the last end, re-whitened, on
    _poisson_nll until the line search cannot lower it; a continued run
    that takes no step ends the fit, as the next would repeat it.  BFGS
    never raises the NLL, so the last end, returned, is the lowest.
    """
    if len(records) < 16:
        raise InvalidArgumentError("tomography needs at least 16 settings")
    pis = np.array([r.projector for r in records])
    data = np.array([(r.counts, r.shots, r.accidental) for r in records]).T
    counts, shots, accidentals = data
    w, u = np.linalg.eigh(_linear_inversion(
        pis, np.maximum(counts - accidentals, 0.0) / shots))
    w = np.maximum(w, 1e-9)
    x = ((u * np.sqrt(w / w.sum())) @ u.conj().T).ravel().view(float)
    offset = float(np.sum(counts - counts * np.log(np.maximum(counts, 1e-300))))
    options = {"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10}
    for run in range(1 + MLE_RESTARTS):
        r_inv = np.linalg.inv(_whitening(x, pis, shots, accidentals))
        res = minimize(_whitened_negloglike_and_grad, np.zeros(32),
                       args=(x, r_inv, offset, pis, *data), options=options)
        if run and res.nit == 0:  # a further run would re-whiten at x and repeat this one
            break
        x = x + r_inv @ res.x
        rho = _rho_of(x)
        _, drho = _negloglike_and_drho(rho, pis, *data)
        if np.trace(drho @ rho).real - np.linalg.eigvalsh(drho)[0] <= MLE_GAP_TOL:
            break
        offset, options = 0.0, {**options, "ftol": 0.0}
    return rho


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(rho)
    return (u * np.sqrt(np.maximum(w, 0.0))) @ u.conj().T


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Computed as the squared trace norm of sqrt(rho) sqrt(sigma), whose
    singular values keep the small eigenvalues to absolute rounding
    (the square roots of the eigenvalues of sqrt(rho) sigma sqrt(rho)
    lose half the digits), and clipped to [0, 1]: rounding puts nearly
    equal states a few ulp above 1.
    """
    rho = _check_density(rho)
    sigma = _check_density(sigma)
    s = np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(sigma), compute_uv=False)
    return float(min(np.sum(s) ** 2, 1.0))


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2)."""
    rho = _check_density(rho)
    return float(np.real(np.trace(rho @ rho)))
