"""Dither-tone calibration of a waveshaper unit.

Both ring resonances are wiggled by small sinusoidal dither tones; the
transmitted intensity picks up harmonics whose amplitudes encode the
resonance detunings and the channel phase.  The magnitude of the harmonic
at 2*(f_demux + f_mux) peaks at zero detuning independent of the phase,
and with the rings aligned the real part of the (f_mux - f_demux)
component traces a cosine of the applied phase, which maps heater power
to phase.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from .errors import DegenerateScanError, FitFailureError, InvalidArgumentError
from .rings import (WsUnitConfig, _detuned_ports, _unit_ports, _ws_output, ws_unit,
                    ws_unit_response)


@dataclass(frozen=True)
class DitherConfig:
    """Dither tones applied to the demux/mux heaters.

    ``amplitude`` is the wavelength modulation amplitude in meters.  The
    duration must be commensurate with every analyzed tone (150, 250,
    100 and 800 Hz by default share a 50 Hz base).
    """

    amplitude: float
    f_demux: float = 150.0
    f_mux: float = 250.0
    duration: float = 0.2
    sample_rate: float = 51200.0

    def __post_init__(self):
        if self.f_demux == self.f_mux:
            raise InvalidArgumentError("dither tones must differ")
        top = 2.0 * (self.f_demux + self.f_mux)
        if self.sample_rate < 16.0 * top:
            raise InvalidArgumentError("sample rate too low for the analyzed harmonics")
        for f in (self.f_demux, self.f_mux, abs(self.f_mux - self.f_demux), top):
            if not np.isclose(f * self.duration, round(f * self.duration), atol=1e-9):
                raise InvalidArgumentError(
                    f"duration {self.duration} s is not commensurate with tone {f} Hz")

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


def simulate_dither_trace(unit: WsUnitConfig, dither: DitherConfig, probe_wavelength: float,
                          noise_sigma: float = 0.0, rng=None) -> np.ndarray:
    """Transmitted intensity |response(t)|^2 with both resonances dithered."""
    amp = ws_unit_response(probe_wavelength, unit, extra_detunings=_dither_offsets(dither))
    return _add_noise(np.abs(amp) ** 2, noise_sigma, rng)


def harmonic_component(trace: np.ndarray, frequency: float, sample_rate: float) -> complex:
    """Complex Fourier coefficient (2/N) * sum I(t_k) exp(-2 pi i f t_k).

    The frequency must fall on an exact DFT bin of the trace.
    """
    n = len(trace)
    cycles = frequency * n / sample_rate
    if not np.isclose(cycles, round(cycles), atol=1e-6):
        raise InvalidArgumentError(f"{frequency} Hz is not an exact DFT bin of the trace")
    t = np.arange(n) / sample_rate
    return complex(2.0 / n * np.sum(trace * np.exp(-2j * np.pi * frequency * t)))


@dataclass(frozen=True)
class AlignScanResult:
    detuning_demux: float
    detuning_mux: float
    scan_map: np.ndarray
    grid_demux: np.ndarray
    grid_mux: np.ndarray


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
    mux_lines = [_detuned_ports(probe_wavelength, unit_template.mux, det_m + (gm + dm_t))
                 for gm in grid_mux]
    scan = np.zeros((grid_demux.size, grid_mux.size))
    baseline = 0.0
    for i, gd in enumerate(grid_demux):
        demux_ports = _detuned_ports(probe_wavelength, unit_template.demux,
                                     det_d + (gd + dd_t))
        for j, mux_ports in enumerate(mux_lines):
            intensity = np.abs(_ws_output(mode, phase, demux_ports, mux_ports)) ** 2
            scan[i, j] = abs(np.sum(intensity * kernel))
            baseline = max(baseline, float(np.mean(intensity)))
    if scan.max() <= 1e-9 * max(baseline, np.finfo(float).tiny):
        raise DegenerateScanError("scan map is flat; dither amplitude too small")
    i, j = np.unravel_index(np.argmax(scan), scan.shape)
    return AlignScanResult(float(grid_demux[i]), float(grid_mux[j]), scan, grid_demux, grid_mux)


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
    y = np.array([harmonic_component(tr, dither.phase_harmonic, dither.sample_rate).real
                  for tr in traces])

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
            # a start that collapses to i0 = 0 has no covariance: skip it
            with warnings.catch_warnings():
                warnings.simplefilter("error", OptimizeWarning)
                try:
                    popt, pcov = curve_fit(model, powers, y,
                                           p0=(i0_guess, p2pi_guess, phi0_guess),
                                           jac=jac, maxfev=20000)
                except (RuntimeError, OptimizeWarning):
                    continue
            if abs(popt[1]) < min_period:
                continue
            res = float(np.sqrt(np.mean((model(powers, *popt) - y) ** 2)))
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


def phase_from_power(cal: PhaseCalibration, power: float) -> float:
    """Phi(P) wrapped to [-pi, pi)."""
    return wrap_phase(cal.phase_offset + 2.0 * np.pi * power / cal.power_2pi)


def simulate_phase_sweep(unit_template: WsUnitConfig, powers, power_2pi: float,
                         phase_offset: float, dither: DitherConfig,
                         probe_wavelength: float, noise_sigma: float = 0.0, rng=None):
    """Synthetic calibration sweep: one aligned-unit trace per heater power.

    Plants Phi(P) = phase_offset + 2 pi P / power_2pi; used by the CLI and
    by plant-and-recover tests.  Each trace equals simulate_dither_trace of
    ws_unit(demux, mux, mode, Phi(P)): the ring ports do not depend on the
    phase, so they are computed once for the whole sweep.
    """
    unit = ws_unit(unit_template.demux, unit_template.mux, unit_template.mode)
    ports = _unit_ports(probe_wavelength, unit, _dither_offsets(dither))
    traces = []
    for p in np.asarray(powers, dtype=float):
        phi = phase_offset + 2.0 * np.pi * p / power_2pi
        trace = np.abs(_ws_output(unit.mode, phi, *ports)) ** 2
        traces.append(_add_noise(trace, noise_sigma, rng))
    return traces
