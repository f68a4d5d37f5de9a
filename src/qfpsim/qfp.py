"""Three-element processor (IN PM -> WS -> OUT PM): gates and figures of merit.

A beamsplitter between two adjacent bins is programmed by driving both
modulators at equal depth delta with a relative pi RF phase and applying a
step spectral phase alpha on the bins from the upper computational bin up.
The 2x2 block on the computational bins is then the closed form

    V(alpha) = I + (e^{i alpha} - 1) [[(1 - J_0^2)/2, -s], [-s, (1 + J_0^2)/2]],

with J_k = J_k(delta) and s = sum_{k>=1} J_k J_{k-1} (Lukens and Lougovski,
Optica 4, 8, 2017).  It is exact to about 1e-14 while both bins lie at
least truncation_order(delta) bins from the window edge, the margin
ProcessorConfig enforces.  R = |V_00|^2 and T = |V_01|^2 give the cosine
laws, and at alpha = pi the block is [[sqrt(R), sqrt(T)], [sqrt(T), -sqrt(R)]].
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import (InvalidArgumentError, OutOfRangeError,
                     ReconstructionFailureError, UndefinedFidelityError)
from .eom import ModeOperator, RfDrive, bessel_row, eom_operator, truncation_order
from .lattice import FrequencyLattice
from .rings import ws_operator


@dataclass(frozen=True)
class ProcessorConfig:
    """Full declarative description of one processor setting; ``ws_phases``
    is one WS spectral phase per window bin, a tuple so that a setting hashes."""

    in_drive: RfDrive
    out_drive: RfDrive
    ws_phases: tuple
    lattice: FrequencyLattice
    computational_bins: tuple

    def __post_init__(self):
        b0, b1 = self.computational_bins
        if b1 - b0 != 1:
            raise InvalidArgumentError("computational bins must be adjacent")
        lat = self.lattice
        if not (lat.contains(b0) and lat.contains(b1)):
            raise InvalidArgumentError("computational bins must lie inside the window")
        # The block sums over intermediate bins within K of the pair, so a
        # margin of K bins to the window edge keeps it exact.
        depth = max(self.in_drive.depth, self.out_drive.depth)
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
    # the WS operator is diagonal: scaling the columns of m_out applies it
    entries = (m_out.entries * ws_operator(config.ws_phases, lat)) @ m_in.entries
    return ModeOperator(lat, entries)


def _shifted_beamsplitter(alpha: float, delta: float, lattice: FrequencyLattice,
                          computational_bins: tuple, lam_p: float, mu_p: float) -> ProcessorConfig:
    """The beamsplitter at alpha with its RF phases shifted (in: -lam_p, out:
    +mu_p) and the spectral ramp bin * (lam_p + mu_p) added to its step."""
    bins = lattice.bins
    phases = np.where(bins >= computational_bins[1], alpha, 0.0) + bins * (lam_p + mu_p)
    return ProcessorConfig(RfDrive(delta, np.pi - lam_p), RfDrive(delta, mu_p),
                           tuple(phases.tolist()), lattice, tuple(computational_bins))


def beamsplitter_config(alpha: float, delta: float, lattice: FrequencyLattice,
                        computational_bins: tuple) -> ProcessorConfig:
    """Tunable-beamsplitter setting: equal depths, relative pi RF phase,
    step spectral phase alpha on the bins from the upper computational bin up."""
    return _shifted_beamsplitter(alpha, delta, lattice, computational_bins, 0.0, 0.0)


def _bessel_sums(delta: float) -> tuple:
    """(J_0, s = sum_{k>=1} J_k J_{k-1}) at depth delta from one Bessel row."""
    if delta < 0:
        raise InvalidArgumentError("depth must be non-negative")
    row = bessel_row(truncation_order(delta) + 5, delta)
    return row[0], float(np.sum(row[1:] * row[:-1]))


def jbar(delta: float) -> float:
    """Effective cross-coupling strength 2 s^2, s = sum_{k>=1} J_k J_{k-1}.

    Normalized so the transmittivity is jbar * (1 - cos(alpha)); equals
    0.239 at the 50/50 working depth 0.8169 rad.
    """
    s = _bessel_sums(delta)[1]
    return 2.0 * s * s


def _cosine_laws(alpha, j0: float, s: float) -> tuple:
    """(R, T) at step phase alpha: R = J_0^4 + (1 - J_0^4)(1 + cos alpha)/2,
    T = jbar (1 - cos alpha).  Not |V|^2 of the block: |e^{2 pi i} - 1| is
    2e-16, and T must vanish at alpha = 2 pi for alpha_for_theta(0)."""
    j04 = j0**4
    c = np.cos(alpha)
    return j04 + ((1.0 - j04) / 2.0) * (1.0 + c), 2.0 * s * s * (1.0 - c)


def _splitting(alpha, j0: float, s: float) -> float:
    """T/(R+T) at step phase alpha."""
    r, t = _cosine_laws(alpha, j0, s)
    return t / (r + t)


def rt_closed_form(alpha, delta: float) -> tuple:
    """(R, T) of the beamsplitter from the closed-form cosine laws: floats
    for one alpha, arrays for an array of them."""
    r, t = _cosine_laws(alpha, *_bessel_sums(delta))
    return (float(r), float(t)) if np.ndim(alpha) == 0 else (r, t)


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
    coeffs = _bessel_sums(delta)
    if want >= _splitting(np.pi, *coeffs):
        return np.pi

    def ratio(alpha):
        return _splitting(alpha, *coeffs) - want

    return float(brentq(ratio, np.pi, 2.0 * np.pi, xtol=1e-12))


def _beamsplitter_block(alpha: float, delta: float) -> np.ndarray:
    """The closed-form 2x2 block V(alpha) of the module docstring."""
    j0, s = _bessel_sums(delta)
    a = np.array([[(1.0 - j0 * j0) / 2.0, -s], [-s, (1.0 + j0 * j0) / 2.0]])
    return np.eye(2) + (np.exp(1j * alpha) - 1.0) * a


def intrinsic_phases(alpha: float, delta: float) -> tuple:
    """Euler phases (lam0, mu0) the bare beamsplitter at alpha already carries.

    Away from alpha = pi the computational block is still in the target
    family but with equal non-zero column/row phases; gate synthesis
    subtracts them so the programmed phases land on the requested values.
    """
    v = _beamsplitter_block(alpha, delta)
    ref = np.angle(v[0, 0])
    return (float(np.angle(v[0, 1]) - ref), float(np.angle(v[1, 0]) - ref))


def synthesize_gate(theta: float, lam: float, mu: float, delta: float,
                    lattice: FrequencyLattice, computational_bins: tuple) -> ProcessorConfig:
    """Processor setting approximating the target unitary (theta, lam, mu).

    Starts from the beamsplitter at alpha(theta), subtracts its intrinsic
    Euler phases, and applies RF phase shifts (in: -lam', out: +mu') plus
    the linear spectral ramp bin * (lam' + mu')."""
    alpha = alpha_for_theta(theta, delta)
    lam0, mu0 = intrinsic_phases(alpha, delta)
    return _shifted_beamsplitter(alpha, delta, lattice, computational_bins,
                                 lam - lam0, mu - mu0)


def simulate_output_spectrum(config: ProcessorConfig, input_amplitudes: dict) -> np.ndarray:
    """Per-bin output powers |M a|^2 for a normalized {bin: amplitude} input."""
    return _output_powers(compose_qfp(config), input_amplitudes)


def _output_powers(op: ModeOperator, input_amplitudes: dict) -> np.ndarray:
    """|M a|^2 of a composed processor for one probe (see simulate_output_spectrum)."""
    lat = op.lattice
    a = np.zeros(lat.size, dtype=complex)
    for b, amp in input_amplitudes.items():
        a[lat.index_of(b)] = amp
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
                          computational_bins: tuple) -> np.ndarray:
    """Complex 2x2 scattering matrix from four (or six) probe spectra.

    Magnitudes come from the single-bin spectra.  The row gauge takes
    V_m0 = sqrt(bin0) real non-negative; where V_m0 >= tol = 1e-6, the gamma =
    0 / pi pair gives Re V_m1 = (I_0 - I_pi) / (2 V_m0), the gamma = pi/2,
    3pi/2 pair (when present) gives Im V_m1 = -(I_pi/2 - I_3pi/2) / (2 V_m0),
    and without it Im V_m1 = +sqrt(|V_m1|^2 - Re^2).  Where V_m0 < tol
    the phase of V_m1 is free and V_m1 = |V_m1| is taken real.

    Two probe phases leave each row's Im-sign open.  The block is
    proportional to a unitary, so its columns are orthogonal: V_11 is
    conjugated when that makes them more nearly so (to 1e-9), which pins
    the relative sign; Im V_01 >= 0 breaks the global conjugation.

    Raises ReconstructionFailureError when a probe spectrum is missing or
    an inferred cosine exceeds 1 beyond tol.
    """
    tol = 1e-6
    i0, i1 = (lattice.index_of(b) for b in computational_bins)
    keys = {float(k.split(":", 1)[1]): k for k in spectra if k.startswith("gamma:")}

    def rows(key):
        s = np.asarray(spectra[key])
        return s[i0], s[i1]

    def probe(gamma):
        key = next((k for g, k in keys.items() if abs(g - gamma) <= 1e-9), None)
        return None if key is None else rows(key)

    i_0, i_pi = probe(0.0), probe(np.pi)
    if "bin0" not in spectra or "bin1" not in spectra or i_0 is None or i_pi is None:
        raise ReconstructionFailureError(
            "need 'bin0', 'bin1' and the gamma = 0, pi probe spectra")
    i_q1, i_q3 = probe(np.pi / 2.0), probe(3.0 * np.pi / 2.0)
    quadrature = i_q1 is not None and i_q3 is not None
    col0 = np.sqrt(np.maximum(rows("bin0"), 0.0))
    mag1 = np.sqrt(np.maximum(rows("bin1"), 0.0))
    v = np.array([[col0[0], mag1[0]], [col0[1], mag1[1]]], dtype=complex)
    for m in (0, 1):
        if col0[m] < tol:
            continue
        re = (i_0[m] - i_pi[m]) / (2.0 * col0[m])
        if abs(re) > mag1[m] + 10.0 * np.sqrt(tol):
            raise ReconstructionFailureError(
                f"row {m}: inferred cosine exceeds 1 "
                f"(|Re| = {abs(re):.3g} > |V| = {mag1[m]:.3g})")
        if quadrature:
            im = -(i_q1[m] - i_q3[m]) / (2.0 * col0[m])
        else:
            im = np.sqrt(max(mag1[m] ** 2 - re**2, 0.0))
        v[m, 1] = re + 1j * im
    if not quadrature and col0[1] >= tol:
        flipped = v.copy()
        flipped[1, 1] = np.conj(v[1, 1])
        overlap = [round(abs(np.vdot(c[:, 0], c[:, 1])), 9) for c in (v, flipped)]
        if overlap[1] < overlap[0]:
            return flipped
    return v


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


def single_pm_balanced_probability() -> tuple:
    """1-D sweep oracle for the single-modulator balanced beamsplitter.

    Sweeps the depth of a lone modulator over [0.5, 2.5], finds the most
    balanced |J_0|^2 vs |J_1|^2 splitting, and reports (delta*, P).
    Documents the ~2/3 upper bound a single phase modulator can reach.
    """
    best = None
    for d in np.linspace(0.5, 2.5, 2001):
        row = bessel_row(1, d)
        j0sq, j1sq = row[0] ** 2, row[1] ** 2
        imbalance = abs(j0sq - j1sq)
        if best is None or imbalance < best[0]:
            best = (imbalance, float(d), float(j0sq + j1sq))
    return best[1], best[2]
