"""Three-element processor (IN PM -> WS -> OUT PM): gates and figures of merit.

A beamsplitter between two adjacent bins is programmed by driving both
modulators at equal depth with a relative pi RF phase and applying a step
spectral phase alpha between the two computational bins.  With the pi
phase on the input modulator and the step phase on bins at and above the
upper computational bin, the 2x2 block on the computational bins takes
the real symmetric form [[sqrt(R), sqrt(T)], [sqrt(T), -sqrt(R)]] at
alpha = pi.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import (InvalidArgumentError, OutOfRangeError,
                     ReconstructionFailureError, UndefinedFidelityError)
from .eom import ModeOperator, RfDrive, bessel_row, eom_operator, truncation_order
from .lattice import FrequencyLattice
from .rings import MODEL_IDEAL, MODE_PHASE, WsChannel, ws_operator


@dataclass(frozen=True)
class ProcessorConfig:
    """Full declarative description of one processor setting."""

    in_drive: RfDrive
    out_drive: RfDrive
    channels: tuple
    lattice: FrequencyLattice
    computational_bins: tuple
    ws_model: str = MODEL_IDEAL

    def __post_init__(self):
        b0, b1 = self.computational_bins
        if b1 - b0 != 1:
            raise InvalidArgumentError("computational bins must be adjacent")
        lat = self.lattice
        if not (lat.contains(b0) and lat.contains(b1)):
            raise InvalidArgumentError("computational bins must lie inside the window")
        # The block sums over intermediate bins within K of the pair, so a
        # margin of K bins to the window edge keeps it exact.
        depth = max(self.in_drive.effective_depth, self.out_drive.effective_depth)
        needed = truncation_order(depth)
        margin = min(b0 - lat.l_min, lat.l_max - b1)
        if margin < needed:
            raise OutOfRangeError(
                f"computational bins lie {margin} bins from the window edge; depth "
                f"{depth} needs {needed} (widen the window)")


def compose_qfp(config: ProcessorConfig) -> ModeOperator:
    """Out-PM * WS * in-PM matrix product (input modulator acts first)."""
    lat = config.lattice
    m_in = eom_operator(config.in_drive, lat)
    m_out = eom_operator(config.out_drive, lat)
    d_ws = ws_operator(config.channels, lat, config.ws_model)
    # the WS operator is diagonal: scaling the columns of m_out applies it
    entries = (m_out.entries * np.diagonal(d_ws.entries)) @ m_in.entries
    return ModeOperator(lat, entries, label="QFP")


def _step_channels(lattice: FrequencyLattice, upper_bin: int, alpha: float,
                   ramp: float = 0.0):
    """PHASE channels realizing the step-plus-ramp spectral phase pattern.

    Bins >= upper_bin carry alpha; every bin additionally carries
    bin * ramp.  Channels with zero total phase are omitted (IDEAL
    identity entry).
    """
    channels = []
    for b in lattice.bins:
        phase = (alpha if b >= upper_bin else 0.0) + b * ramp
        if phase != 0.0:
            channels.append(WsChannel(int(b), float(phase), MODE_PHASE))
    return tuple(channels)


def beamsplitter_config(alpha: float, delta: float, lattice: FrequencyLattice,
                        computational_bins: tuple) -> ProcessorConfig:
    """Tunable-beamsplitter setting: equal depths, relative pi RF phase,
    step spectral phase alpha between the computational bins."""
    b0, b1 = computational_bins
    in_drive = RfDrive(delta, np.pi, lattice.spacing)
    out_drive = RfDrive(delta, 0.0, lattice.spacing)
    channels = _step_channels(lattice, b1, alpha)
    return ProcessorConfig(in_drive, out_drive, channels, lattice, (b0, b1))


def jbar(delta: float) -> float:
    """Effective cross-coupling strength 2 * (sum_{k>=1} J_k J_{k-1})^2.

    Normalized so the transmittivity is jbar * (1 - cos(alpha)); equals
    0.239 at the 50/50 working depth 0.8169 rad.
    """
    if delta == 0.0:
        return 0.0
    kmax = truncation_order(delta) + 4
    row = bessel_row(kmax + 1, delta)
    s = float(np.sum(row[1:] * row[:-1]))
    return 2.0 * s * s


def _rt_coefficients(delta: float) -> tuple:
    """(J_0^4, jbar): the depth-dependent coefficients of the cosine laws."""
    if delta < 0:
        raise InvalidArgumentError("depth must be non-negative")
    return bessel_row(0, delta)[0] ** 4, jbar(delta)


def _cosine_laws(alpha, j04: float, jb: float) -> tuple:
    """(R, T) at step phase alpha: R = J_0^4 + (1 - J_0^4)(1 + cos alpha)/2,
    T = jbar (1 - cos alpha)."""
    c = np.cos(alpha)
    return j04 + ((1.0 - j04) / 2.0) * (1.0 + c), jb * (1.0 - c)


def _splitting(alpha, j04: float, jb: float) -> float:
    """T/(R+T) at step phase alpha."""
    r, t = _cosine_laws(alpha, j04, jb)
    return t / (r + t)


def rt_closed_form(alpha: float, delta: float) -> tuple:
    """(R, T) of the beamsplitter from the closed-form cosine laws."""
    r, t = _cosine_laws(alpha, *_rt_coefficients(delta))
    return float(r), float(t)


def submatrix(op: ModeOperator, bins: tuple) -> np.ndarray:
    """2x2 block of the operator on the computational bin pair."""
    idx = [op.lattice.index_of(b) for b in bins]
    margin = min(idx[0], idx[1], op.lattice.size - 1 - idx[0], op.lattice.size - 1 - idx[1])
    if margin < 1:
        raise InvalidArgumentError("computational bins must lie inside the interior window")
    return op.entries[np.ix_(idx, idx)].copy()


def success_probability(v: np.ndarray) -> float:
    """P = Tr(V^dag V) / 2: fraction of amplitude kept in the qubit pair."""
    return float(0.5 * np.real(np.trace(v.conj().T @ v)))


def fidelity(v: np.ndarray, target: np.ndarray) -> float:
    """Frobenius overlap |Tr(V^dag U)|^2 / (4 P); global-phase invariant."""
    p = success_probability(v)
    if p <= 0.0:
        raise UndefinedFidelityError("success probability is zero")
    return float(abs(np.trace(v.conj().T @ target)) ** 2 / (4.0 * p))


def target_unitary(theta: float, lam: float, mu: float) -> np.ndarray:
    """General single-qubit unitary with Euler angles (theta, lam, mu)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, np.exp(1j * lam) * s],
                     [np.exp(1j * mu) * s, -np.exp(1j * (lam + mu)) * c]])


def splitting_max(delta: float) -> float:
    """Largest achievable T/(R+T) over alpha, attained at alpha = pi."""
    return float(_splitting(np.pi, *_rt_coefficients(delta)))


def alpha_for_theta(theta: float, delta: float) -> float:
    """Invert T/(R+T) = sin^2(theta/2) for alpha on the [pi, 2pi] branch.

    The ratio peaks just below 1/2 at alpha = pi for delta = 0.8169, so a
    requested theta = pi/2 clamps to alpha = pi (best achievable
    splitting); anything above pi/2 is rejected.
    """
    if not 0.0 <= theta <= np.pi / 2.0 + 1e-12:
        raise OutOfRangeError(
            f"theta = {theta} outside the achievable interval [0, pi/2] at depth {delta}")
    want = np.sin(theta / 2.0) ** 2
    coeffs = _rt_coefficients(delta)
    if want >= _splitting(np.pi, *coeffs):
        return np.pi

    def ratio(alpha):
        return _splitting(alpha, *coeffs) - want

    return float(brentq(ratio, np.pi, 2.0 * np.pi, xtol=1e-12))


def intrinsic_phases(alpha: float, delta: float, lattice: FrequencyLattice,
                     computational_bins: tuple) -> tuple:
    """Euler phases (lam0, mu0) the bare beamsplitter at alpha already carries.

    Away from alpha = pi the computational block is still in the target
    family but with equal non-zero column/row phases; gate synthesis
    subtracts them so the programmed phases land on the requested values.
    """
    cfg = beamsplitter_config(alpha, delta, lattice, computational_bins)
    v = submatrix(compose_qfp(cfg), computational_bins)
    ref = np.angle(v[0, 0])
    return (float(np.angle(v[0, 1]) - ref), float(np.angle(v[1, 0]) - ref))


def synthesize_gate(theta: float, lam: float, mu: float, delta: float,
                    lattice: FrequencyLattice, computational_bins: tuple) -> ProcessorConfig:
    """Processor setting approximating the target unitary (theta, lam, mu).

    Starts from the beamsplitter at alpha(theta), subtracts its intrinsic
    Euler phases, and applies RF phase shifts (in: -lam', out: +mu') plus
    the linear spectral ramp bin * (lam' + mu')."""
    alpha = alpha_for_theta(theta, delta)
    b0, b1 = computational_bins
    lam0, mu0 = intrinsic_phases(alpha, delta, lattice, computational_bins)
    lam_p, mu_p = lam - lam0, mu - mu0
    in_drive = RfDrive(delta, np.pi - lam_p, lattice.spacing)
    out_drive = RfDrive(delta, mu_p, lattice.spacing)
    channels = _step_channels(lattice, b1, alpha, ramp=lam_p + mu_p)
    return ProcessorConfig(in_drive, out_drive, channels, lattice, (b0, b1))


def simulate_output_spectrum(config: ProcessorConfig, input_amplitudes) -> np.ndarray:
    """Per-bin output powers |M a|^2 for a normalized input amplitude vector.

    ``input_amplitudes`` may be a full window vector or a {bin: amplitude}
    mapping.
    """
    return _output_powers(compose_qfp(config), input_amplitudes)


def _output_powers(op: ModeOperator, input_amplitudes) -> np.ndarray:
    """|M a|^2 of a composed processor for one probe (see simulate_output_spectrum)."""
    lat = op.lattice
    if isinstance(input_amplitudes, dict):
        a = np.zeros(lat.size, dtype=complex)
        for b, amp in input_amplitudes.items():
            a[lat.index_of(b)] = amp
    else:
        a = np.asarray(input_amplitudes, dtype=complex)
        if a.shape != (lat.size,):
            raise InvalidArgumentError("input vector must match the lattice window")
    norm = np.sum(np.abs(a) ** 2)
    if not np.isclose(norm, 1.0, atol=1e-9):
        raise InvalidArgumentError("input amplitudes must be normalized")
    return np.abs(op.entries @ a) ** 2


def beamsplitter_spectra(config: ProcessorConfig, gammas=(0.0, np.pi)) -> dict:
    """The canonical probe spectra used for scattering-matrix reconstruction.

    Keys: 'bin0', 'bin1' (single-bin inputs) and 'gamma:<value>' for
    equal superpositions with relative phase gamma.
    """
    b0, b1 = config.computational_bins
    op = compose_qfp(config)
    spectra = {
        "bin0": _output_powers(op, {b0: 1.0}),
        "bin1": _output_powers(op, {b1: 1.0}),
    }
    for g in gammas:
        amp = {b0: 1.0 / np.sqrt(2.0), b1: np.exp(1j * g) / np.sqrt(2.0)}
        spectra[f"gamma:{g:.17g}"] = _output_powers(op, amp)
    return spectra


def _gauge_fix_rows(v: np.ndarray) -> np.ndarray:
    """Remove the per-row phase freedom: first column of each row real >= 0
    (falling back to the other column when the anchor vanishes)."""
    out = v.copy()
    for i in range(out.shape[0]):
        j = 0 if abs(out[i, 0]) > 1e-12 else 1
        if abs(out[i, j]) > 0:
            out[i] *= np.exp(-1j * np.angle(out[i, j]))
    return out


def gauge_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise distance after fixing the per-row phase gauge of both."""
    return float(np.abs(_gauge_fix_rows(a) - _gauge_fix_rows(b)).max())


def reconstruct_submatrix(spectra: dict, lattice: FrequencyLattice,
                          computational_bins: tuple, tol: float = 1e-6) -> np.ndarray:
    """Complex 2x2 scattering matrix from four (or six) probe spectra.

    Magnitudes come from the single-bin spectra; the per-row relative
    phase between columns comes from the gamma = 0 / pi pair.  These two
    gammas leave the sign of each row's imaginary part ambiguous; if the
    gamma = pi/2, 3pi/2 spectra are present the sign is determined, else
    it is chosen to minimize the distance to the real beamsplitter family
    (positive off-diagonal, negative second diagonal).

    The row gauge is fixed with V00 real non-negative and V10 real
    non-negative.  Raises ReconstructionFailureError when the inferred
    cosines exceed 1 beyond ``tol``.
    """
    b0, b1 = computational_bins
    i0, i1 = lattice.index_of(b0), lattice.index_of(b1)

    gamma_map = {float(k.split(":", 1)[1]): k
                 for k in spectra if k.startswith("gamma:")}

    def gamma_key(target):
        for g, k in gamma_map.items():
            if abs(g - target) <= 1e-9:
                return k
        return None

    def row_data(key):
        s = np.asarray(spectra[key])
        return s[i0], s[i1]

    m00, m10 = np.sqrt(np.maximum(row_data("bin0"), 0.0))
    m01, m11 = np.sqrt(np.maximum(row_data("bin1"), 0.0))
    k0, kp = gamma_key(0.0), gamma_key(np.pi)
    if "bin0" not in spectra or "bin1" not in spectra or k0 is None or kp is None:
        raise ReconstructionFailureError(
            "need 'bin0', 'bin1' and the gamma = 0, pi probe spectra")
    g0 = np.array(row_data(k0))
    gp = np.array(row_data(kp))
    re = g0 - gp  # per row: 2 Re(V_m0 conj(V_m1)) / 2 -> see below
    # I_m(0) - I_m(pi) = 2 Re(V_m0 V_m1*)
    re_cross = re
    mags = np.array([[m00, m01], [m10, m11]])
    v = np.zeros((2, 2), dtype=complex)
    # row gauge: first column real non-negative
    v[0, 0] = mags[0, 0]
    v[1, 0] = mags[1, 0]

    key_q1 = gamma_key(np.pi / 2.0)
    key_q3 = gamma_key(3.0 * np.pi / 2.0)
    have_quad = key_q1 is not None and key_q3 is not None
    if have_quad:
        q = np.array(row_data(key_q1)) - np.array(row_data(key_q3))
        # I_m(pi/2) - I_m(3pi/2) = 2 Im(V_m0 V_m1*)
    candidates = []
    for s0 in (+1.0, -1.0):
        for s1 in (+1.0, -1.0):
            cand = v.copy()
            for row, sgn in ((0, s0), (1, s1)):
                anchor = cand[row, 0].real
                if anchor < tol:
                    # column-0 magnitude ~ 0: phase of column 1 is free, take it real
                    cand[row, 1] = mags[row, 1]
                    continue
                re_part = re_cross[row] / (2.0 * anchor)
                if abs(re_part) > mags[row, 1] + 10.0 * np.sqrt(tol):
                    raise ReconstructionFailureError(
                        f"row {row}: inferred cosine exceeds 1 "
                        f"(|Re| = {abs(re_part):.3g} > |V| = {mags[row, 1]:.3g})")
                im_sq = max(mags[row, 1] ** 2 - re_part**2, 0.0)
                if have_quad:
                    im_part = -q[row] / (2.0 * anchor)
                else:
                    im_part = sgn * np.sqrt(im_sq)
                cand[row, 1] = re_part + 1j * im_part
            candidates.append(cand)
            if have_quad:
                break
        if have_quad:
            break
    if len(candidates) > 1:
        # Two probe phases leave each row's Im-sign open.  The block is
        # proportional to a unitary, so its columns are orthogonal; that
        # pins the relative sign.  The remaining global-conjugation
        # ambiguity is broken by convention: Im(V01) >= 0.
        def badness(m):
            ortho = abs(np.vdot(m[:, 0], m[:, 1]))
            return (round(ortho, 9), 0.0 if m[0, 1].imag >= -1e-12 else 1.0)

        candidates.sort(key=badness)
    return candidates[0]


def reconstruction_residual(v: np.ndarray, spectra: dict, lattice: FrequencyLattice,
                            computational_bins: tuple) -> float:
    """RMS mismatch between the computational-bin rows of the input spectra
    and those regenerated from the reconstructed matrix."""
    b0, b1 = computational_bins
    i0, i1 = lattice.index_of(b0), lattice.index_of(b1)
    errs = []
    for key, s in spectra.items():
        s = np.asarray(s)
        if key == "bin0":
            pred = np.abs(v[:, 0]) ** 2
        elif key == "bin1":
            pred = np.abs(v[:, 1]) ** 2
        elif key.startswith("gamma:"):
            g = float(key.split(":")[1])
            pred = 0.5 * np.abs(v[:, 0] + np.exp(1j * g) * v[:, 1]) ** 2
        else:
            continue
        errs.extend([pred[0] - s[i0], pred[1] - s[i1]])
    return float(np.sqrt(np.mean(np.square(errs))))


def single_pm_balanced_probability(delta_grid=None) -> tuple:
    """1-D sweep oracle for the single-modulator balanced beamsplitter.

    Sweeps the depth of a lone modulator, finds the most balanced
    |J_0|^2 vs |J_1|^2 splitting, and reports (delta*, P).  Documents the
    ~2/3 upper bound a single phase modulator can reach.
    """
    if delta_grid is None:
        delta_grid = np.linspace(0.5, 2.5, 2001)
    best = None
    for d in delta_grid:
        row = bessel_row(1, d)
        j0sq, j1sq = row[0] ** 2, row[1] ** 2
        imbalance = abs(j0sq - j1sq)
        if best is None or imbalance < best[0]:
            best = (imbalance, float(d), float(j0sq + j1sq))
    return best[1], best[2]
