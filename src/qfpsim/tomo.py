"""Two-qubit frequency-bin state tomography: projectors, fringes, MLE.

Each photon of a bin-pair qubit is analyzed either in the bin basis
(which bin the photon occupies) or in a superposition basis realized by
mixing the two bins on a modulator and detecting one output bin.  The
superposition projector is lossy: its success amplitude is set by the
mixer's effective splitting.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit, minimize

from .errors import FitFailureError, InvalidArgumentError
from .eom import bessel_row

DEFAULT_MEASUREMENT_DEPTH = 0.8169

BASIS_BIN0 = "bin0"
BASIS_BIN1 = "bin1"
BASIS_SUPERPOSITION = "superposition"


@dataclass(frozen=True)
class MeasurementSetting:
    """Single-photon analyzer choice: a bin projector or a phased
    superposition projector (phi is the relative bin phase)."""

    basis: str
    phi: float = 0.0

    def __post_init__(self):
        if self.basis not in (BASIS_BIN0, BASIS_BIN1, BASIS_SUPERPOSITION):
            raise InvalidArgumentError(f"unknown basis {self.basis!r}")


def superposition_efficiency(depth: float = DEFAULT_MEASUREMENT_DEPTH) -> float:
    """Success amplitude 2 J0 J1 of the single-modulator analyzer."""
    row = bessel_row(1, depth)
    return float(2.0 * row[0] * row[1])


def projector(setting: MeasurementSetting,
              depth: float = DEFAULT_MEASUREMENT_DEPTH) -> np.ndarray:
    """Single-qubit POVM element for one analyzer setting.

    Bin settings are ideal projectors; superposition settings are
    eta * |v><v| with |v> = (|0> + e^{i phi} |1>)/sqrt(2) and
    eta = (2 J0 J1)^2 <= 1.
    """
    if setting.basis == BASIS_BIN0:
        return np.diag([1.0, 0.0]).astype(complex)
    if setting.basis == BASIS_BIN1:
        return np.diag([0.0, 1.0]).astype(complex)
    v = np.array([1.0, np.exp(1j * setting.phi)]) / np.sqrt(2.0)
    eta = superposition_efficiency(depth) ** 2
    return eta * np.outer(v, v.conj())


def canonical_settings(depth: float = DEFAULT_MEASUREMENT_DEPTH) -> tuple:
    """The 16 two-photon settings {bin0, bin1, phi=0, phi=pi/2} x same."""
    singles = (MeasurementSetting(BASIS_BIN0),
               MeasurementSetting(BASIS_BIN1),
               MeasurementSetting(BASIS_SUPERPOSITION, 0.0),
               MeasurementSetting(BASIS_SUPERPOSITION, np.pi / 2.0))
    return tuple((a, b) for a in singles for b in singles)


def joint_projector(pair, depth: float = DEFAULT_MEASUREMENT_DEPTH) -> np.ndarray:
    """Tensor product of the two single-photon POVM elements."""
    a, b = pair
    return np.kron(projector(a, depth), projector(b, depth))


def _check_density(rho: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidArgumentError("density matrix must be 4x4")
    if not np.allclose(rho, rho.conj().T, atol=tol):
        raise InvalidArgumentError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise InvalidArgumentError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -tol:
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


def expected_rate(rho: np.ndarray, pair,
                  depth: float = DEFAULT_MEASUREMENT_DEPTH) -> float:
    """Tr(rho Pi_a x Pi_b): fractional coincidence rate at one setting."""
    rho = _check_density(rho)
    return float(np.real(np.trace(rho @ joint_projector(pair, depth))))


def bell_fringe(rho: np.ndarray, phis, fixed_phi: float = 0.0,
                depth: float = DEFAULT_MEASUREMENT_DEPTH) -> np.ndarray:
    """Coincidence fringe vs the signal analyzer phase, idler phase fixed."""
    rho = _check_density(rho)
    out = []
    for phi in np.atleast_1d(phis):
        pair = (MeasurementSetting(BASIS_SUPERPOSITION, float(phi)),
                MeasurementSetting(BASIS_SUPERPOSITION, fixed_phi))
        out.append(expected_rate(rho, pair, depth))
    return np.asarray(out)


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

    @property
    def violation_significance(self) -> float:
        if self.visibility_sigma <= 0:
            return np.inf
        return (self.visibility - 1.0 / np.sqrt(2.0)) / self.visibility_sigma


def fit_visibility(phis, counts, sigma=None) -> VisibilityFit:
    """Fit a two-photon interference fringe and report V with uncertainty.

    ``sigma`` defaults to shot noise sqrt(max(counts, 1)).  Requires at
    least five phase points; raises FitFailureError when the optimizer
    cannot converge.
    """
    phis = np.asarray(phis, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if phis.shape != counts.shape or phis.size < 5:
        raise InvalidArgumentError("need matching arrays with >= 5 fringe points")
    if sigma is None:
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
                               absolute_sigma=True,
                               p0=[b0, min(spread, 0.99), chi0],
                               maxfev=20000)
    except RuntimeError as exc:
        raise FitFailureError(f"fringe fit failed: {exc}") from exc
    b, v, chi = popt
    if b < 0:
        b, v = -b, -v
    if v < 0:
        v, chi = -v, chi + np.pi
    chi = float(np.angle(np.exp(1j * chi)))
    return VisibilityFit(float(b), float(v), chi, float(np.sqrt(pcov[1, 1])))


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts observed (or expected) at one joint setting."""

    setting_a: MeasurementSetting
    setting_b: MeasurementSetting
    counts: float
    shots: float
    accidental: float = 0.0


def simulate_counts(rho: np.ndarray, shots: float,
                    settings=None, accidental_fraction: float = 0.0,
                    rng: np.random.Generator = None,
                    depth: float = DEFAULT_MEASUREMENT_DEPTH) -> list:
    """Coincidence records over the canonical (or given) settings.

    Expected counts are shots * rate + shots * accidental_fraction; with a
    generator supplied they are Poisson sampled, otherwise the expected
    values are returned exactly (deterministic mode).
    """
    rho = _check_density(rho)
    if settings is None:
        settings = canonical_settings(depth)
    records = []
    for pair in settings:
        acc = shots * accidental_fraction
        mean = shots * expected_rate(rho, pair, depth) + acc
        counts = float(rng.poisson(mean)) if rng is not None else float(mean)
        records.append(MeasurementRecord(pair[0], pair[1], counts, shots, acc))
    return records


def _t_from_params(params: np.ndarray) -> np.ndarray:
    """Lower-triangular T from 16 reals (diagonal first, then off-diagonal
    real/imag pairs row by row)."""
    t = np.zeros((4, 4), dtype=complex)
    t[np.diag_indices(4)] = params[:4]
    k = 4
    for i in range(1, 4):
        for j in range(i):
            t[i, j] = params[k] + 1j * params[k + 1]
            k += 2
    return t


def _params_from_rho(rho: np.ndarray) -> np.ndarray:
    """Inverse of _t_from_params via Cholesky of a regularized rho."""
    w, u = np.linalg.eigh(rho)
    w = np.maximum(w, 1e-9)
    reg = u @ np.diag(w) @ u.conj().T
    reg = reg / np.trace(reg).real
    # want lower-triangular T with reg = T^dag T: Cholesky in the
    # index-reversed basis gives it
    rev = reg[::-1, ::-1]
    t = np.linalg.cholesky(rev).conj().T[::-1, ::-1]
    params = np.zeros(16)
    params[:4] = t.diagonal().real
    k = 4
    for i in range(1, 4):
        for j in range(i):
            params[k], params[k + 1] = t[i, j].real, t[i, j].imag
            k += 2
    return params


def _linear_inversion(records: list, depth: float) -> np.ndarray:
    """Least-squares rho estimate ignoring positivity, used as MLE seed."""
    a_rows, y = [], []
    for rec in records:
        pi = joint_projector((rec.setting_a, rec.setting_b), depth)
        a_rows.append(pi.conj().ravel())
        y.append(max(rec.counts - rec.accidental, 0.0) / rec.shots)
    a = np.array(a_rows)
    x, *_ = np.linalg.lstsq(a, np.array(y), rcond=None)
    rho = x.reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    return rho / tr if abs(tr) > 1e-12 else np.eye(4) / 4.0


def mle_reconstruct(records: list, depth: float = DEFAULT_MEASUREMENT_DEPTH,
                    restarts: int = 3, seed: int = 11) -> np.ndarray:
    """Maximum-likelihood density matrix from coincidence records.

    rho = T^dag T / Tr(T^dag T) with T lower triangular (16 real
    parameters) guarantees physicality.  The Poisson log-likelihood is
    maximized with L-BFGS-B using the analytic gradient; the search runs
    from a linear-inversion seed plus random restarts and keeps the best.
    """
    if len(records) < 16:
        raise InvalidArgumentError("tomography needs at least 16 settings")
    pis = np.array([joint_projector((r.setting_a, r.setting_b), depth)
                    for r in records])
    counts = np.array([r.counts for r in records])
    shots = np.array([r.shots for r in records])
    accidentals = np.array([r.accidental for r in records])

    def negloglike_and_grad(params):
        t = _t_from_params(params)
        g = t.conj().T @ t
        trg = np.trace(g).real
        if trg <= 0:
            return 1e18, np.zeros(16)
        rho = g / trg
        mu = shots * np.real(np.einsum("kij,ji->k", pis, rho)) + accidentals
        mu = np.maximum(mu, 1e-12)
        nll = float(np.sum(mu - counts * np.log(mu)))
        # d nll / d rho = sum_k (1 - counts/mu) * shots * Pi_k
        w = (1.0 - counts / mu) * shots
        drho = np.einsum("k,kij->ij", w, pis)
        # rho = G/TrG; d/dT* : grad_T = 2 * (T drho - Tr(rho drho) T) / TrG
        inner = np.trace(rho @ drho).real
        grad_t = 2.0 * (t @ drho - inner * t) / trg
        grad = np.zeros(16)
        grad[:4] = grad_t.diagonal().real
        k = 4
        for i in range(1, 4):
            for j in range(i):
                grad[k], grad[k + 1] = grad_t[i, j].real, grad_t[i, j].imag
                k += 2
        return nll, grad

    rng = np.random.default_rng(seed)
    starts = [_params_from_rho(_linear_inversion(records, depth))]
    for _ in range(restarts):
        starts.append(rng.normal(scale=0.5, size=16))
    best = None
    for x0 in starts:
        res = minimize(negloglike_and_grad, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10})
        if best is None or res.fun < best.fun:
            best = res
    t = _t_from_params(best.x)
    g = t.conj().T @ t
    return g / np.trace(g).real


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
