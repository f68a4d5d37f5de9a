"""Dither-tone calibration of a waveshaper unit.

Both ring resonances are wiggled by small sinusoidal dither tones; the
transmitted intensity picks up harmonics whose amplitudes encode the
resonance detunings and the channel phase.  The magnitude of the harmonic
at 2*(f_demux + f_mux) peaks near zero detuning: exactly at it for a
channel phase of 0 or pi, and otherwise up to about 0.045 linewidths off
in both rings, depending on the phase (fine scans put it at -0.04 for a
phase of 2.3 and +0.04 for 4.0).  With the rings aligned the real part of
the (f_mux - f_demux) component traces a cosine of the applied phase,
which maps heater power to phase.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from .errors import DegenerateScanError, FitFailureError, InvalidArgumentError
from .rings import WsUnitConfig, _ring_ports, _ws_output, ws_unit


@dataclass(frozen=True)
class DitherConfig:
    """Dither tones applied to the demux/mux heaters.

    ``amplitude`` is the wavelength modulation amplitude in meters.  The
    tones and the trace are fixed: the duration is commensurate with every
    analyzed tone (150, 250, 100 and 800 Hz share a 50 Hz base), and the
    sample rate is 64 times the highest of them.
    """

    amplitude: float
    f_demux = 150.0       # Hz
    f_mux = 250.0         # Hz
    duration = 0.2        # s
    sample_rate = 51200.0  # Hz

    @property
    def times(self) -> np.ndarray:
        n = int(round(self.duration * self.sample_rate))
        return np.arange(n) / self.sample_rate

    @property
    def alignment_harmonic(self) -> float:
        return 2.0 * (self.f_demux + self.f_mux)

    @property
    def phase_harmonic(self) -> float:
        return abs(self.f_mux - self.f_demux)


@dataclass(frozen=True)
class PhaseCalibration:
    """Heater power to phase map Phi(P) = phase_offset + 2 pi P / power_2pi."""

    power_2pi: float
    phase_offset: float
    amplitude: float
    covariance: np.ndarray
    residual_rms: float


def _dither_offsets(dither: DitherConfig) -> tuple:
    """(demux, mux) resonance offsets over the trace's sample times."""
    t = dither.times
    return (dither.amplitude * np.sin(2.0 * np.pi * dither.f_demux * t),
            dither.amplitude * np.sin(2.0 * np.pi * dither.f_mux * t))


def _add_noise(trace: np.ndarray, noise_sigma: float, rng) -> np.ndarray:
    if noise_sigma > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        trace = trace + rng.normal(0.0, noise_sigma, trace.shape)
    return trace


def harmonic_component(traces, frequency: float, sample_rate: float):
    """Complex Fourier coefficient (2/N) * sum I(t_k) exp(-2 pi i f t_k).

    ``traces`` is one trace or a stack of them along the last axis; the
    result has one coefficient per trace.  The frequency must fall on an
    exact DFT bin of the trace.  The tone is built once and each trace's
    product is summed on its own, so memory stays at one trace's worth.
    """
    traces = np.asarray(traces)
    n = traces.shape[-1]
    cycles = frequency * n / sample_rate
    if not np.isclose(cycles, round(cycles), atol=1e-6):
        raise InvalidArgumentError(f"{frequency} Hz is not an exact DFT bin of the trace")
    tone = np.exp(-2j * np.pi * frequency * (np.arange(n) / sample_rate))
    rows = traces.reshape(-1, n)
    sums = np.fromiter((np.sum(row * tone) for row in rows), complex, len(rows))
    return 2.0 / n * sums.reshape(traces.shape[:-1])


@dataclass(frozen=True)
class AlignScanResult:
    detuning_demux: float
    detuning_mux: float
    scan_map: np.ndarray


def align_scan(unit_template: WsUnitConfig, grid_demux, grid_mux,
               dither: DitherConfig, probe_wavelength: float) -> AlignScanResult:
    """Grid search maximizing |I~(2(f_D + f_M))| over ring detunings.

    ``grid_demux``/``grid_mux`` are wavelength offsets added on top of the
    template's detunings; returns the argmax plus the full 2-D map.
    """
    grid_demux = np.asarray(grid_demux, dtype=float)
    grid_mux = np.asarray(grid_mux, dtype=float)
    if grid_demux.size == 0 or grid_mux.size == 0:
        raise InvalidArgumentError("alignment grid must be non-empty")
    dd_t, dm_t = _dither_offsets(dither)
    t = dither.times
    f = dither.alignment_harmonic
    kernel = np.exp(-2j * np.pi * f * t) * (2.0 / len(t))
    det_d, det_m = unit_template.detunings
    mode, phase = unit_template.mode, unit_template.channel_phase
    # keep the mux ports of each grid line and make the demux ports once per
    # row: a (grid x samples) array for every port would cost memory
    mux_lines = [_ring_ports(probe_wavelength, unit_template.mux, det_m + (gm + dm_t))
                 for gm in grid_mux]
    scan = np.zeros((grid_demux.size, grid_mux.size))
    baseline = 0.0
    for i, gd in enumerate(grid_demux):
        demux_ports = _ring_ports(probe_wavelength, unit_template.demux, det_d + (gd + dd_t))
        for j, mux_ports in enumerate(mux_lines):
            intensity = np.abs(_ws_output(mode, phase, demux_ports, mux_ports)) ** 2
            scan[i, j] = abs(np.sum(intensity * kernel))
            baseline = max(baseline, float(np.mean(intensity)))
    if scan.max() <= 1e-9 * max(baseline, np.finfo(float).tiny):
        raise DegenerateScanError("scan map is flat; dither amplitude too small")
    i, j = np.unravel_index(np.argmax(scan), scan.shape)
    return AlignScanResult(float(grid_demux[i]), float(grid_mux[j]), scan)


def fit_phase_curve(powers, traces, dither: DitherConfig) -> PhaseCalibration:
    """Fit Re[I~(f_M - f_D)] vs heater power to I0 cos(2 pi P / P_2pi + Phi_0).

    ``traces`` holds one dither trace per power, recorded with the rings
    aligned.  Requires at least 8 points spanning a full period.
    """
    powers = np.asarray(powers, dtype=float)
    if powers.size < 8:
        raise InvalidArgumentError("need at least 8 power points")
    if len(traces) != powers.size:
        raise InvalidArgumentError("one trace per power point required")
    y = harmonic_component(traces, dither.phase_harmonic, dither.sample_rate).real

    def model(p, i0, p2pi, phi0):
        return i0 * np.cos(2.0 * np.pi * p / p2pi + phi0)

    def jac(p, i0, p2pi, phi0):
        # analytic, as in tomo.fit_visibility: forward differences leave
        # the covariance unestimable from some starts
        u = 2.0 * np.pi * p / p2pi + phi0
        sin_u = np.sin(u)
        return np.column_stack((np.cos(u), i0 * 2.0 * np.pi * p / p2pi**2 * sin_u,
                                -i0 * sin_u))

    span = powers.max() - powers.min()
    if span <= 0:
        raise InvalidArgumentError("powers must span a nonzero range")
    best = None
    i0_guess = max(np.abs(y).max(), 1e-30)
    # periods under two grid steps are sampling aliases, not physical fits
    min_period = 2.0 * float(np.median(np.diff(np.sort(powers))))
    for p2pi_guess in (span, span / 2.0, 2.0 * span):
        for phi0_guess in (0.0, np.pi / 2.0, np.pi, -np.pi / 2.0):
            # a start that collapses to i0 = 0 has no covariance, and one that
            # under- or overflows (powers or noise of extreme scale) has no
            # finite residual: skip both
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("error", OptimizeWarning)
                try:
                    popt, pcov = curve_fit(model, powers, y,
                                           p0=(i0_guess, p2pi_guess, phi0_guess),
                                           jac=jac, maxfev=20000)
                except (RuntimeError, OptimizeWarning):
                    continue
                res = float(np.sqrt(np.mean((model(powers, *popt) - y) ** 2)))
            if abs(popt[1]) < min_period or not np.isfinite(res):
                continue
            if best is None or res < best[2]:
                best = (popt, pcov, res)
    if best is None:
        raise FitFailureError("phase-curve fit failed to converge from every start")
    popt, pcov, res = best
    i0, p2pi, phi0 = popt
    if i0 < 0:  # fold the sign into the phase
        i0 = -i0
        phi0 += np.pi
    if p2pi < 0:
        p2pi = -p2pi
        phi0 = -phi0
    # On resonance the dropped-path cross term t_M t_D (d_M d_D)* is
    # negative, so the fitted cosine is inverted relative to the channel
    # phase; shift by pi to report the actual phase offset.
    phi0 = wrap_phase(phi0 + np.pi)
    if span < 0.95 * p2pi:
        raise InvalidArgumentError("power sweep must span at least one full 2pi period")
    return PhaseCalibration(float(p2pi), phi0, float(i0), pcov, res)


def wrap_phase(phi: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    out = float(np.angle(np.exp(1j * phi)))
    return -np.pi if out >= np.pi else out


def simulate_phase_sweep(unit_template: WsUnitConfig, powers, power_2pi: float,
                         phase_offset: float, dither: DitherConfig,
                         probe_wavelength: float, noise_sigma: float = 0.0, rng=None):
    """Synthetic calibration sweep: one aligned-unit trace per heater power,
    stacked as the rows of one array.

    Plants Phi(P) = phase_offset + 2 pi P / power_2pi; used by the CLI and
    by plant-and-recover tests.  Each trace is the dithered intensity
    |ws_unit_response|^2 of ws_unit(demux, mux, mode, Phi(P)): the ring
    ports do not depend on the phase, so they are computed once for the
    whole sweep.
    """
    unit = ws_unit(unit_template.demux, unit_template.mux, unit_template.mode)
    ports = [_ring_ports(probe_wavelength, ring, det + offsets) for ring, det, offsets
             in zip((unit.demux, unit.mux), unit.detunings, _dither_offsets(dither))]
    powers = np.asarray(powers, dtype=float)
    traces = np.empty((powers.size, dither.times.size))
    for k, p in enumerate(powers):
        phi = phase_offset + 2.0 * np.pi * p / power_2pi
        trace = np.abs(_ws_output(unit.mode, phi, *ports)) ** 2
        traces[k] = _add_noise(trace, noise_sigma, rng)
    return traces
