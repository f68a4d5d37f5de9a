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

import math
from dataclasses import dataclass

import numpy as np

from ._solvers import curve_fit
from .errors import DegenerateScanError, FitFailureError, InvalidArgumentError
from .rings import WsUnitConfig, _ring_ports, _ws_power_factors, reduce_phase


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


def _dither_period(dither: DitherConfig) -> int:
    """Samples in the common period 1/gcd(f_D, f_M) of the tones (20 ms,
    1024 samples), over which a noiseless trace repeats."""
    return round(dither.sample_rate / math.gcd(int(dither.f_demux), int(dither.f_mux)))


def _dither_offsets(dither: DitherConfig) -> tuple:
    """(demux, mux) resonance offsets over one common period of the tones."""
    t = dither.times[:_dither_period(dither)]
    return (dither.amplitude * np.sin(2.0 * np.pi * dither.f_demux * t),
            dither.amplitude * np.sin(2.0 * np.pi * dither.f_mux * t))


def harmonic_component(traces, frequency: float, sample_rate: float):
    """Complex Fourier coefficient (2/N) * sum I(t_k) exp(-2 pi i f t_k).

    ``traces`` is one trace or a stack of them along the last axis; the
    result has one coefficient per trace.  The frequency must fall on an
    exact DFT bin of the trace.  The tone is built once as cos and -sin
    arrays, and each trace's coefficient is its two dot products with
    them, taken one trace at a time so that a stack gives each of its
    traces' coefficients bit for bit.
    """
    traces = np.asarray(traces)
    n = traces.shape[-1]
    cycles = frequency * n / sample_rate
    if not np.isclose(cycles, round(cycles), atol=1e-6):
        raise InvalidArgumentError(f"{frequency} Hz is not an exact DFT bin of the trace")
    angle = 2.0 * np.pi * frequency * (np.arange(n) / sample_rate)
    cos, minus_sin = np.cos(angle), -np.sin(angle)
    rows = traces.reshape(-1, n)
    sums = np.fromiter((complex(row @ cos, row @ minus_sin) for row in rows), complex,
                       len(rows))
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
    template's detunings; returns the argmax plus the full 2-D map.  A
    maximum on the edge of either axis was not bracketed by the scan and is
    refused, as is a flat map.  The noiseless trace repeats with the common
    period 1/gcd(f_D, f_M) of the tones (20 ms, 1024 of its samples), and
    the harmonic and mean of one period equal those of the whole trace, so
    each cell uses one period.  A cell's intensity is a sum of demux-only
    times mux-only factors, so the ports of all demux rows and of all mux
    columns are built in one call each, and the grid's harmonics and means
    are a few (rows x period) @ (period x columns) products.
    """
    grid_demux = np.asarray(grid_demux, dtype=float)
    grid_mux = np.asarray(grid_mux, dtype=float)
    if grid_demux.size == 0 or grid_mux.size == 0:
        raise InvalidArgumentError("alignment grid must be non-empty")
    dd_t, dm_t = _dither_offsets(dither)
    t = dither.times[:dd_t.size]
    kernel = np.exp(-2j * np.pi * dither.alignment_harmonic * t) * (2.0 / t.size)
    det_d, det_m = unit_template.detunings
    demux_ports = _ring_ports(probe_wavelength, unit_template.demux,
                              det_d + (grid_demux[:, None] + dd_t))
    mux_ports = _ring_ports(probe_wavelength, unit_template.mux,
                            det_m + (grid_mux[:, None] + dm_t))
    factors = list(zip(*_ws_power_factors(unit_template.channel_phase, demux_ports, mux_ports)))
    harmonic = sum((d * kernel) @ m.T for d, m in factors)
    # hypot is what abs of one complex number computes; the vectorized
    # complex abs can differ from it in the last bit
    scan = np.hypot(harmonic.real, harmonic.imag)
    baseline = float(np.real(sum(d @ m.T for d, m in factors)).max()) / t.size
    if scan.max() <= 1e-9 * max(baseline, np.finfo(float).tiny):
        raise DegenerateScanError("scan map is flat; dither amplitude too small")
    i, j = np.unravel_index(np.argmax(scan), scan.shape)
    if i in (0, scan.shape[0] - 1) or j in (0, scan.shape[1] - 1):
        raise DegenerateScanError(f"scan maximum at cell ({i}, {j}) of a {scan.shape} grid "
                                  "lies on its edge, not bracketed; widen scan_span")
    return AlignScanResult(float(grid_demux[i]), float(grid_mux[j]), scan)


def _period_grid_search(powers, y):
    """Start (I0, P_2pi, Phi_0) from the best point of a variable projection.

    For a fixed P_2pi the model I0 cos(2 pi P / P_2pi + Phi_0) is linear in
    (I0 cos Phi_0, -I0 sin Phi_0) (Golub and Pereyra, SIAM J. Numer. Anal.
    10, 413, 1973), so each frequency 1/P_2pi of a grid gets the residual
    of its 2-column least squares.  ``powers`` is a sorted uniform sweep
    P_j = P_0 + j h of n points; the grid is nu_k = k / (2 h L), k = 1..L
    with L = 4(n - 1), spaced 1/(8 span) up to the alias floor 1/(2 h).
    On it the projections sum_j y_j e^{2 pi i nu_k P_j} are e^{2 pi i nu_k
    P_0} times the conjugate of one zero-padded FFT of y of length 2L, and
    the Gram sums come from the sum g_k of e^{4 pi i nu_k P_j}, read from
    the FFT of ones at 2k.  Frequencies whose two columns are nearly
    parallel (Gram determinant under 1e-9 n^2) are skipped.  Returns None
    when no point is finite.
    """
    scale = max(np.abs(y).max(), np.finfo(float).tiny)
    y = y / scale
    n = powers.size
    size = 8 * (n - 1)  # 2L
    k = np.arange(1, size // 2 + 1)
    nu = k / (size * (powers[-1] - powers[0]) / (n - 1))
    shift = np.exp(2j * np.pi * nu * powers[0])
    proj = shift * np.conj(np.fft.fft(y, size)[k])
    gram = shift**2 * np.conj(np.fft.fft(np.ones(n), size)[2 * k % size])
    cc, ss, cs = (n + gram.real) / 2, (n - gram.real) / 2, gram.imag / 2
    cy, sy = proj.real, proj.imag
    det = cc * ss - cs * cs
    ok = det > 1e-9 * n**2
    det = np.where(ok, det, 1.0)
    a, b = (ss * cy - cs * sy) / det, (cc * sy - cs * cy) / det
    fitted = np.where(ok, a * cy + b * sy, -np.inf)  # = |y|^2 - residual^2
    i = int(np.argmax(fitted))
    if not fitted[i] > -np.inf:
        return None
    return scale * float(np.hypot(a[i], b[i])), 1.0 / nu[i], float(np.arctan2(-b[i], a[i]))


def fit_phase_curve(powers, traces, dither: DitherConfig) -> PhaseCalibration:
    """Fit Re[I~(f_M - f_D)] vs heater power to I0 cos(2 pi P / P_2pi + Phi_0).

    ``traces`` holds one dither trace per power, recorded with the rings
    aligned.  Requires at least 8 points spanning a full period, at
    equal steps in some order; other sweeps are refused.  A grid search
    by variable projection over 1/P_2pi, one FFT of the sorted sweep up to
    the two-step alias floor, gives the start of one least-squares fit of
    all three parameters, which also gives the covariance.
    """
    powers = np.asarray(powers, dtype=float)
    if powers.size < 8:
        raise InvalidArgumentError("need at least 8 power points")
    if len(traces) != powers.size:
        raise InvalidArgumentError("one trace per power point required")
    order = np.argsort(powers)
    span = powers[order[-1]] - powers[order[0]]
    step = span / (powers.size - 1)
    # linspace steps differ by ulps; a zero or non-finite step fails too
    if not (np.isfinite(span) and np.ptp(np.diff(powers[order])) < 1e-9 * step):
        raise InvalidArgumentError("powers must be a sweep of equal nonzero steps")

    def model(p, i0, p2pi, phi0):
        return i0 * np.cos(2.0 * np.pi * p / p2pi + phi0)

    def jac(p, i0, p2pi, phi0):
        # analytic, as in tomo.fit_visibility: forward differences leave
        # the covariance unestimable from some starts
        u = 2.0 * np.pi * p / p2pi + phi0
        sin_u = np.sin(u)
        return np.column_stack((np.cos(u), i0 * 2.0 * np.pi * p / p2pi**2 * sin_u,
                                -i0 * sin_u))

    # a fit that collapses to i0 = 0 has no covariance, and one that under-
    # or overflows (powers or noise of extreme scale, from the harmonics
    # on) has no finite residual: both fail
    failed = FitFailureError("phase-curve fit failed to converge from every start")
    with np.errstate(all="ignore"):
        y = harmonic_component(traces, dither.phase_harmonic, dither.sample_rate).real
        start = _period_grid_search(powers[order], y[order])
        if start is None:
            raise failed
        try:
            popt, pcov = curve_fit(model, powers, y, p0=start, jac=jac, maxfev=20000)
        except RuntimeError:
            raise failed from None
        res = float(np.sqrt(np.mean((model(powers, *popt) - y) ** 2)))
    # periods under two steps are sampling aliases, not physical fits
    if abs(popt[1]) < 2.0 * step or not np.isfinite(res):
        raise failed
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
    phi0 = reduce_phase(phi0 + np.pi)
    if span < 0.95 * p2pi:
        raise InvalidArgumentError("power sweep must span at least one full 2pi period")
    return PhaseCalibration(float(p2pi), phi0, float(i0), pcov, res)


def simulate_phase_sweep(unit_template: WsUnitConfig, powers, power_2pi: float,
                         phase_offset: float, dither: DitherConfig,
                         probe_wavelength: float, noise_sigma: float = 0.0, rng=None):
    """Synthetic calibration sweep: one aligned-unit trace per heater power,
    stacked as the rows of one array.

    Plants Phi(P) = phase_offset + 2 pi P / power_2pi; used by the CLI and
    by plant-and-recover tests.  Only the template's rings are read: each
    trace is the dithered intensity |ws_unit_response|^2 of the aligned unit
    of those rings (``ws_unit``) at channel phase Phi(P).  The ring ports do
    not depend on the phase and the noiseless trace repeats every common
    period of the tones, so one period is built for the whole sweep and
    tiled over the trace.  Its four products of ring factors are taken once,
    at Phi = 0: through and drop add to a level, and with the cross term c
    the period at Phi is level + 2 (cos Phi Re c - sin Phi Im c), real outer
    products over the powers.  Gaussian noise of noise_sigma > 0 is drawn
    from ``rng``, which must then be given, so a sweep reruns the same; one
    draw fills the traces row by row.
    """
    if noise_sigma > 0.0 and rng is None:
        raise InvalidArgumentError("noise needs a seeded generator (rng)")
    ports = [_ring_ports(probe_wavelength, ring, offsets) for ring, offsets
             in zip((unit_template.demux, unit_template.mux), _dither_offsets(dither))]
    through, drop, cross, _ = (d * m for d, m in zip(*_ws_power_factors(0.0, *ports)))
    powers = np.asarray(powers, dtype=float)
    # reduced first: an offset of 1e17 would swamp the phase the powers add
    phis = reduce_phase(phase_offset) + 2.0 * np.pi * powers[:, None] / power_2pi
    one_period = through + drop + 2.0 * (np.cos(phis) * cross.real - np.sin(phis) * cross.imag)
    period, n = _dither_period(dither), dither.times.size
    tiles = np.broadcast_to(one_period[..., None, :], (powers.size, n // period, period))
    if noise_sigma > 0.0:
        traces = rng.normal(0.0, noise_sigma, tiles.shape)
        traces += tiles
    else:
        traces = tiles.copy()
    return traces.reshape(powers.size, n)
