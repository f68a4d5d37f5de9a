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
# random starts of the MLE after the linear-inversion seed, and their seed
MLE_RESTARTS = 3
MLE_SEED = 11
# Frank-Wolfe gap (NLL units) below which the best start so far is taken as
# the MLE and no further start runs
MLE_GAP_TOL = 0.1
# ridge of each start's whitening, as a fraction of the Fisher information's
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
    """Tr(rho Pi_k), the fractional coincidence rate, for each projector of the stack."""
    return np.real(np.einsum("kij,ji->k", pis, rho))


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
        return self.visibility > 1.0 / np.sqrt(2.0)


def fit_visibility(phis, counts) -> VisibilityFit:
    """Fit a two-photon interference fringe and report V with uncertainty.

    Each point is weighted by its shot noise sqrt(max(counts, 1)).
    Requires at least five phase points; raises FitFailureError when the
    fringe is flat to rounding (``_FLAT_FRINGE_RTOL``), or the optimizer
    cannot converge or the covariance is not finite (a flat fringe leaves
    the phase, and so V's uncertainty, undetermined).
    """
    phis = np.asarray(phis, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if phis.shape != counts.shape or phis.size < 5:
        raise InvalidArgumentError("need matching arrays with >= 5 fringe points")
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

    b0 = float(np.mean(counts))
    spread = (counts.max() - counts.min()) / (2.0 * b0) if b0 > 0 else 0.5
    chi0 = float(-phis[np.argmax(counts)])
    try:
        popt, pcov = curve_fit(model, phis, counts, sigma=sigma, jac=jac,
                               absolute_sigma=True, p0=[b0, min(spread, 0.99), chi0],
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


def _quadratic_forms(pis: np.ndarray) -> np.ndarray:
    """Real 32 x 32 forms Q_k, stacked as a (32 K) x 32 array, with
    p Q_k p = Tr(A Pi_k A^dag) for p = A.ravel().view(float).

    Row i of A enters only its own diagonal block, and in it Re Pi_k acts
    on each (Re, Im) pair as Re Pi_k I_2 and Im Pi_k as J = [[0, 1], [-1, 0]]:
    Q_k = I_4 (x) (Re Pi_k (x) I_2 + Im Pi_k (x) J), symmetric for Hermitian Pi_k.
    """
    block = np.empty((len(pis), 4, 2, 4, 2))  # Re Pi_k (x) I_2 + Im Pi_k (x) J
    block[:, :, 0, :, 0] = block[:, :, 1, :, 1] = pis.real
    block[:, :, 0, :, 1] = pis.imag
    block[:, :, 1, :, 0] = -pis.imag
    block = block.reshape(-1, 8, 8)
    forms = np.zeros((len(pis), 4, 8, 4, 8))  # I_4 (x) block
    for i in range(4):
        forms[:, i, :, i, :] = block
    return forms.reshape(-1, 32)


def _poisson_nll(rates, counts, shots, accidentals):
    """Poisson negative log-likelihood of the records at the fractional
    rates, and its derivative in each rate, (1 - counts_k/mu_k) * shots_k."""
    mu = np.maximum(shots * rates + accidentals, 1e-12)
    return float(np.sum(mu - counts * np.log(mu))), (1.0 - counts / mu) * shots


def _negloglike_and_drho(rho, pis, counts, shots, accidentals):
    """Poisson negative log-likelihood of the records at rho, and its
    gradient in rho, sum_k (1 - counts_k/mu_k) * shots * Pi_k."""
    nll, w = _poisson_nll(_rates(rho, pis), counts, shots, accidentals)
    return nll, np.einsum("k,kij->ij", w, pis)


def _negloglike_and_grad(params, forms, counts, shots, accidentals):
    """Poisson negative log-likelihood of the records at rho(A(params)),
    and its gradient in the 32 parameters, from the records'
    _quadratic_forms: rate_k = p Q_k p / p p."""
    tra = params @ params  # Tr(A^dag A)
    if tra <= 0:
        return 1e18, np.zeros(32)
    qp = (forms @ params).reshape(-1, 32)
    rates = qp @ params / tra
    nll, w = _poisson_nll(rates, counts, shots, accidentals)
    # d rate_k / dp = 2 (Q_k p - rate_k p) / p p
    return nll, 2.0 * (w @ qp - (w @ rates) * params) / tra


def _whitening(params, forms, shots, accidentals) -> np.ndarray:
    """Upper-triangular R with R^T R = G + _WHITEN_RIDGE tr(G)/32 I, G the
    Fisher information of the Poisson records in the 32 parameters at
    ``params``: G = J^T diag(1/mu) J with J_k = d mu_k / dp
    = 2 shots_k (Q_k p - rate_k p) / p p.  The identity where G's trace is
    not finite and positive."""
    with np.errstate(all="ignore"):
        tra = params @ params
        qp = (forms @ params).reshape(-1, 32)
        rates = qp @ params / tra
        mu = np.maximum(shots * rates + accidentals, 1e-12)
        jac = (2.0 * shots / tra)[:, None] * (qp - rates[:, None] * params)
        fisher = (jac.T / mu) @ jac
        scale = _WHITEN_RIDGE * np.trace(fisher) / 32.0
    if not (np.isfinite(scale) and scale > 0.0 and np.isfinite(fisher).all()):
        return np.eye(32)
    try:
        return np.linalg.cholesky(fisher + scale * np.eye(32), upper=True)
    except np.linalg.LinAlgError:
        return np.eye(32)


def _whitened_negloglike_and_grad(q, x0, r_inv, forms, counts, shots, accidentals):
    """_negloglike_and_grad at p = x0 + R^-1 q, with the gradient in q,
    R^-T grad: q = R (p - x0) is the whitened step from the start x0, so a
    start that the minimizer does not move comes back bit for bit."""
    nll, grad = _negloglike_and_grad(x0 + r_inv @ q, forms, counts, shots, accidentals)
    return nll, grad @ r_inv


def mle_reconstruct(records: list) -> np.ndarray:
    """Maximum-likelihood density matrix from coincidence records.

    rho = A^dag A / Tr(A^dag A) with A a full complex 4x4 matrix (32 real
    parameters p = A.ravel().view(float)) guarantees physicality.  Each
    record's rate Tr(rho Pi_k) is then a ratio of real quadratic forms,
    p Q_k p / p p, built once per call (_quadratic_forms), so an evaluation
    of the likelihood and its gradient is one real product.  The Poisson
    log-likelihood is maximized by BFGS using the analytic gradient,
    from the linear-inversion seed U diag(w) U^dag as A = U diag(sqrt(w))
    U^dag (w floored at 1e-9, then scaled to unit sum) and then
    MLE_RESTARTS random starts.  The floor keeps the seed's A full rank:
    the gradient is A times a matrix, so u A = 0 gives u grad = 0 and A
    could never gain rank.
    Each start x0 runs in whitened parameters q = R (p - x0), R from the
    Fisher information at x0 (_whitening), so that BFGS starts on a
    nearly round problem and needs fewer iterations (Nocedal and Wright,
    Numerical Optimization, 2nd ed., ch. 6-7); the ridge _WHITEN_RIDGE keeps
    R invertible on the directions the likelihood does not fix.
    Each start's result is certified by its Frank-Wolfe gap
    Tr(D rho) - lambda_min(D), D the NLL's gradient in rho: the NLL is
    convex in rho, so f(rho) <= f* + gap (Jaggi, ICML 2013), and the starts
    stop once a gap is at most MLE_GAP_TOL.  The best result so far is
    returned, since f(best) <= f(rho) certifies it as well; if no start
    certifies, the best of all is returned.
    """
    if len(records) < 16:
        raise InvalidArgumentError("tomography needs at least 16 settings")
    pis = np.array([r.projector for r in records])
    data = np.array([(r.counts, r.shots, r.accidental) for r in records]).T
    counts, shots, accidentals = data
    forms = _quadratic_forms(pis)
    rng = np.random.default_rng(MLE_SEED)
    w, u = np.linalg.eigh(_linear_inversion(
        pis, np.maximum(counts - accidentals, 0.0) / shots))
    w = np.maximum(w, 1e-9)
    starts = [((u * np.sqrt(w / w.sum())) @ u.conj().T).ravel().view(float)]
    starts += [rng.normal(scale=0.5, size=32) for _ in range(MLE_RESTARTS)]
    best = None
    for x0 in starts:
        r_inv = np.linalg.inv(_whitening(x0, forms, shots, accidentals))
        res = minimize(_whitened_negloglike_and_grad, np.zeros(32),
                       args=(x0, r_inv, forms, *data),
                       options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10})
        rho = _rho_of(x0 + r_inv @ res.x)
        if best is None or res.fun < best_nll:
            best, best_nll = rho, res.fun
        _, drho = _negloglike_and_drho(rho, pis, *data)
        if np.trace(drho @ rho).real - np.linalg.eigvalsh(drho)[0] <= MLE_GAP_TOL:
            break
    return best


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
