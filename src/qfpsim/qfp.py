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

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._solvers import brentq
from .errors import InvalidArgumentError, PhysicsError
from .eom import (ModeOperator, RfDrive, _depth_row, _phasors, _toeplitz, check_window_margin,
                  truncation_order)
from .lattice import FrequencyLattice
from .rings import reduce_phase, ws_operator

# relative phases of the four superposition probes: cos from 0 / pi, sin from pi/2 / 3pi/2
QUADRATURE_GAMMAS = (0.0, np.pi, np.pi / 2.0, 3.0 * np.pi / 2.0)
# the paper's 99.9 % gate fidelity: alpha_for_theta clamps a theta beyond the
# depth's reach to alpha = pi only while the clamped gate keeps it
MIN_GATE_FIDELITY = 0.999


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
        # The block sums over intermediate bins within K of the pair, so a
        # margin of K bins to the window edge keeps it exact.
        check_window_margin(self.lattice, self.computational_bins,
                            max(self.in_drive.depth, self.out_drive.depth))

    @functools.cached_property
    def _diagonals(self) -> tuple:
        """The read-only diagonals (D_in, D_out, c = W D_in D_out^dag) of
        ``_composed_columns``, built on first use and kept as long as the
        setting is, so its compositions share one WS diagonal."""
        bins = self.lattice.bins
        d_in = _phasors(bins, self.in_drive.phase)
        d_out = _phasors(bins, self.out_drive.phase)
        c = ws_operator(self.ws_phases, self.lattice) * d_in * d_out.conj()
        for d in (d_in, d_out, c):
            d.setflags(write=False)
        return d_in, d_out, c

    @functools.cached_property
    def _pair_columns(self) -> tuple:
        """(indices, read-only columns of M) of the computational pair, kept with the setting."""
        idx = [self.lattice.index_of(b) for b in self.computational_bins]
        cols = _composed_columns(self, idx)
        cols.setflags(write=False)
        return idx, cols


def _composed_columns(config: ProcessorConfig, cols) -> np.ndarray:
    """Columns ``cols`` (an index list or slice) of M = M_out W M_in.

    A modulator at RF phase p is D T D^dag, with T its real Toeplitz matrix
    at phase 0 and D = diag(exp(i k p)) over the bins k.  So
    M = D_out T_out diag(c) T_in D_in^dag with c = W D_in D_out^dag, and the
    one n^3 step is a real matrix times a complex one, taken as a single
    real product over the interleaved real and imaginary parts.  The three
    diagonals are the setting's own, built once per setting
    (``ProcessorConfig._diagonals``); both T come from the per-depth cache
    of ``eom._toeplitz``.
    """
    lat = config.lattice
    d_in, d_out, c = config._diagonals
    t_out = _toeplitz(config.out_drive.depth, lat.size)
    t_in = _toeplitz(config.in_drive.depth, lat.size)
    x = np.multiply(c[:, None], t_in[:, cols], order="C")  # C order, to view as real
    y = (t_out @ x.view(np.float64)).view(np.complex128)
    y *= d_out[:, None]
    y *= d_in[cols].conj()
    return y


def compose_qfp(config: ProcessorConfig) -> ModeOperator:
    """Out-PM * WS * in-PM matrix product (input modulator acts first)."""
    return ModeOperator(config.lattice, _composed_columns(config, slice(None)))


def pair_block(config: ProcessorConfig) -> np.ndarray:
    """2x2 block of M on the computational pair, from the pair's two columns."""
    idx, cols = config._pair_columns
    return cols[idx]


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


@functools.lru_cache(maxsize=64)
def _bessel_sums(delta: float) -> tuple:
    """(J_0, s = sum_{k>=1} J_k J_{k-1}) at depth delta, sliced from the
    per-depth Bessel row of ``eom`` and computed once per depth."""
    if delta < 0:
        raise InvalidArgumentError("depth must be non-negative")
    row = _depth_row(delta)[:truncation_order(delta) + 6]
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


def rt_closed_form(alpha, delta: float) -> tuple:
    """(R, T) of the beamsplitter from the closed-form cosine laws: floats
    for one alpha, arrays for an array of them."""
    r, t = _cosine_laws(alpha, *_bessel_sums(delta))
    return (float(r), float(t)) if np.ndim(alpha) == 0 else (r, t)


def submatrix(op: ModeOperator, bins: tuple) -> np.ndarray:
    """2x2 block of the operator on the computational bin pair."""
    i, j = (op.lattice.index_of(b) for b in bins)
    return op.entries[[[i], [j]], [i, j]]  # a column of rows against a row of columns


def success_probability(v: np.ndarray) -> float:
    """P = Tr(V^dag V) / 2, summed as vdot(V, V): fraction of amplitude
    kept in the qubit pair."""
    return float(0.5 * np.vdot(v, v).real)


def fidelity(v: np.ndarray, target: np.ndarray) -> float:
    """Frobenius overlap |Tr(V^dag U)|^2 / (4 P), with Tr(V^dag U) summed
    as vdot(V, U); global-phase invariant."""
    p = success_probability(v)
    if p <= 0.0:
        raise PhysicsError("success probability is zero")
    return float(abs(np.vdot(v, target)) ** 2 / (4.0 * p))


def target_unitary(theta: float, lam: float, mu: float) -> np.ndarray:
    """General single-qubit unitary with Euler angles (theta, lam, mu)."""
    lam, mu = reduce_phase(lam), reduce_phase(mu)  # so that lam + mu cannot overflow
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, np.exp(1j * lam) * s],
                     [np.exp(1j * mu) * s, -np.exp(1j * (lam + mu)) * c]])


def alpha_for_theta(theta: float, delta: float) -> float:
    """Invert T/(R+T) = sin^2(theta/2) for alpha on the [pi, 2pi] branch.

    The ratio peaks at alpha = pi, at theta_max = 2 arcsin sqrt(T/(R+T)),
    just below pi/2 for delta = 0.8169.  A theta above theta_max clamps to
    alpha = pi, whose gate has fidelity cos^2((theta - theta_max)/2) to the
    target; the clamp is rejected when that falls below MIN_GATE_FIDELITY,
    and so is any theta outside [0, pi/2].
    """
    if not 0.0 <= theta <= np.pi / 2.0 + 1e-12:
        raise PhysicsError(
            f"theta = {theta} outside the achievable interval [0, pi/2] at depth {delta}")
    want = np.sin(theta / 2.0) ** 2
    coeffs = _bessel_sums(delta)

    def splitting(alpha):  # T/(R+T) at step phase alpha
        r, t = _cosine_laws(alpha, *coeffs)
        return t / (r + t)

    best = splitting(np.pi)
    if want >= best:
        theta_max = 2.0 * np.arcsin(np.sqrt(best))
        if np.cos((theta - theta_max) / 2.0) ** 2 < MIN_GATE_FIDELITY:
            raise PhysicsError(
                f"theta = {theta} exceeds the largest splitting theta = {theta_max:.6g} "
                f"at depth {delta} by more than a gate fidelity of {MIN_GATE_FIDELITY} allows")
        return np.pi

    return float(brentq(lambda alpha: splitting(alpha) - want, np.pi, 2.0 * np.pi,
                         xtol=1e-12))


def _block_entries(alpha: float, delta: float) -> tuple:
    """Entries (V_00, V_01 = V_10, V_11) of the closed-form block V(alpha)
    of the module docstring, as complex scalars.  The off-diagonal entry
    adds 0.0 as the identity's zero does, which turns a -0.0 part into +0.0."""
    j0, s = _bessel_sums(delta)
    z = np.exp(1j * alpha) - 1.0
    return (1.0 + z * ((1.0 - j0 * j0) / 2.0), 0.0 + z * -s,
            1.0 + z * ((1.0 + j0 * j0) / 2.0))


def intrinsic_phases(alpha: float, delta: float) -> tuple:
    """Euler phases (lam0, mu0) the bare beamsplitter at alpha already carries.

    Away from alpha = pi the computational block is still in the target
    family but with equal non-zero column/row phases; gate synthesis
    subtracts them so the programmed phases land on the requested values.
    The block is symmetric, so the two are the same value.
    """
    v00, v01, _ = _block_entries(alpha, delta)
    phase = float(np.angle(v01) - np.angle(v00))
    return phase, phase


def synthesize_gate(theta: float, lam: float, mu: float, delta: float,
                    lattice: FrequencyLattice, computational_bins: tuple) -> ProcessorConfig:
    """Processor setting approximating the target unitary (theta, lam, mu).

    Starts from the beamsplitter at alpha(theta), subtracts its intrinsic
    Euler phases, and applies RF phase shifts (in: -lam', out: +mu') plus
    the linear spectral ramp bin * (lam' + mu').  lam and mu are reduced to
    [-pi, pi] first, or the ramp would lose them to rounding."""
    alpha = alpha_for_theta(theta, delta)
    lam0, mu0 = intrinsic_phases(alpha, delta)
    return _shifted_beamsplitter(alpha, delta, lattice, computational_bins,
                                 reduce_phase(lam) - lam0, reduce_phase(mu) - mu0)


def simulate_output_spectrum(config: ProcessorConfig, input_amplitudes: dict) -> np.ndarray:
    """Per-bin output powers |M a|^2 for a normalized {bin: amplitude} input.
    Every excited bin keeps the window margin of the processor's depth."""
    lat = config.lattice
    a = np.zeros(lat.size, dtype=complex)
    for b, amp in input_amplitudes.items():
        a[lat.index_of(b)] = amp
    norm = np.sum(np.abs(a) ** 2)
    if not np.isclose(norm, 1.0, atol=1e-9):
        raise InvalidArgumentError("input amplitudes must be normalized")
    excited = np.flatnonzero(a)
    check_window_margin(lat, lat.bins[excited].tolist(),
                        max(config.in_drive.depth, config.out_drive.depth))
    return np.abs(_composed_columns(config, excited) @ a[excited]) ** 2


@functools.lru_cache(maxsize=8)
def _probe_table(gammas: tuple) -> tuple:
    """The probe inputs on the computational pair (b0, b1): their keys
    'bin0', 'bin1' and 'gamma:<value>', and a K x 2 table whose rows are
    the single-bin inputs and then the equal superpositions with relative
    phase gamma.  Cached per gamma tuple, so the table is read-only; a
    gamma of -0.0 is read as 0.0, the same cache key."""
    gammas = tuple(g + 0.0 for g in gammas)
    keys = ("bin0", "bin1") + tuple(f"gamma:{g:.17g}" for g in gammas)
    s = 1.0 / np.sqrt(2.0)
    table = np.array([[1.0, 0.0], [0.0, 1.0]] + [[s, s * np.exp(1j * g)] for g in gammas])
    table.setflags(write=False)
    return keys, table


def beamsplitter_spectra(config: ProcessorConfig, gammas=QUADRATURE_GAMMAS) -> dict:
    """The probe spectra used for scattering-matrix reconstruction.

    Keys: 'bin0', 'bin1' (single-bin inputs) and 'gamma:<value>' for
    equal superpositions with relative phase gamma.
    """
    keys, table = _probe_table(tuple(gammas))
    # a probe excites only the pair, so only the pair's columns are composed
    powers = np.abs(table @ config._pair_columns[1].T) ** 2
    return dict(zip(keys, powers))


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
    """Complex 2x2 scattering matrix from the six probe spectra of
    beamsplitter_spectra at QUADRATURE_GAMMAS.

    Magnitudes come from the single-bin spectra.  The row gauge takes
    V_m0 = sqrt(bin0) real non-negative; where V_m0 >= tol = 1e-6, the gamma =
    0 / pi pair gives Re V_m1 = (I_0 - I_pi) / (2 V_m0) and the gamma = pi/2,
    3pi/2 pair gives Im V_m1 = -(I_pi/2 - I_3pi/2) / (2 V_m0).  Where V_m0 < tol
    the phase of V_m1 is free and V_m1 = |V_m1| is taken real.

    Raises PhysicsError when a probe spectrum is missing or an inferred
    cosine exceeds 1 beyond tol.
    """
    keys = _probe_table(QUADRATURE_GAMMAS)[0]
    missing = [k for k in keys if k not in spectra]
    if missing:
        raise PhysicsError(f"missing probe spectra: {', '.join(missing)}")
    idx = [lattice.index_of(b) for b in computational_bins]
    tol = 1e-6
    rows = []
    for m, (bin0, bin1, i_0, i_pi, i_q1, i_q3) in enumerate(
            np.array([np.asarray(spectra[k])[idx] for k in keys]).T.tolist()):
        # negative powers clip to +0.0 and NaN stays, as with np.maximum
        col0 = math.sqrt(0.0 if bin0 <= 0.0 else bin0)
        mag1 = math.sqrt(0.0 if bin1 <= 0.0 else bin1)
        if col0 < tol:
            rows.append([col0, mag1])
            continue
        re = (i_0 - i_pi) / (2.0 * col0)
        if abs(re) > mag1 + 10.0 * math.sqrt(tol):
            raise PhysicsError(
                f"row {m}: inferred cosine exceeds 1 "
                f"(|Re| = {abs(re):.3g} > |V| = {mag1:.3g})")
        im = -(i_q1 - i_q3) / (2.0 * col0)
        rows.append([col0, re + 1j * im])
    return np.array(rows, dtype=complex)
