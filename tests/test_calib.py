import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c
from scipy.optimize import OptimizeWarning, curve_fit

from qfpsim.calib import (DitherConfig, _dither_offsets, _dither_period, _period_grid_search,
                          align_scan, fit_phase_curve, harmonic_component,
                          simulate_phase_sweep)
from qfpsim.errors import InvalidArgumentError, PhysicsError
from qfpsim.rings import WsUnitConfig, make_ring, reduce_phase, ws_unit, ws_unit_response

WAVELENGTH = c / 193.7e12


def simulate_dither_trace(unit: WsUnitConfig, dither: DitherConfig, probe_wavelength: float,
                          noise_sigma: float = 0.0, rng=None) -> np.ndarray:
    """Reference trace: transmitted intensity |response(t)|^2 with both
    resonances dithered over the whole trace, one unit response at a time."""
    t = dither.times
    offsets = (dither.amplitude * np.sin(2 * np.pi * dither.f_demux * t),
               dither.amplitude * np.sin(2 * np.pi * dither.f_mux * t))
    amp = ws_unit_response(probe_wavelength, unit, extra_detunings=offsets)
    trace = np.abs(amp) ** 2
    return trace + rng.normal(0.0, noise_sigma, trace.shape) if noise_sigma > 0.0 else trace


def paper_ring():
    return make_ring(WAVELENGTH, 0.023, 1.2, 50e-6, 2.8)


def small_dither(ring, fraction=0.05):
    return DitherConfig(fraction * ring.linewidth_fwhm)


def test_dither_config_validation():
    d = DitherConfig(1e-12)
    assert d.alignment_harmonic == 800.0
    assert d.phase_harmonic == 100.0


def test_zero_amplitude_gives_constant_trace():
    ring = paper_ring()
    unit = ws_unit(ring, ring)
    trace = simulate_dither_trace(unit, DitherConfig(0.0), WAVELENGTH)
    assert np.ptp(trace) < 1e-15


def test_far_detuned_trace_is_nearly_constant():
    ring = paper_ring()
    lw = ring.linewidth_fwhm
    unit = WsUnitConfig(ring, ring, detunings=(3 * lw, 3 * lw))
    trace = simulate_dither_trace(unit, small_dither(ring, 0.2), WAVELENGTH)
    assert np.ptp(trace) / np.mean(trace) < 0.05


def test_aligned_trace_contains_dither_tones():
    ring = paper_ring()
    unit = ws_unit(ring, ring)
    dither = small_dither(ring, 0.2)
    trace = simulate_dither_trace(unit, dither, WAVELENGTH)
    fs = dither.sample_rate
    strong = [abs(harmonic_component(trace, f, fs)) for f in (150.0, 250.0, 800.0)]
    quiet = abs(harmonic_component(trace, 170.0, fs))
    assert min(strong) > 100 * quiet


def test_harmonic_component_requires_commensurate_frequency():
    trace = np.zeros(1024)
    with pytest.raises(InvalidArgumentError):
        harmonic_component(trace, 151.7, 51200.0)


def test_harmonic_component_of_a_stack_matches_each_trace():
    traces = np.random.default_rng(3).normal(0.5, 0.1, (24, 10240))
    stacked = harmonic_component(traces, 100.0, 51200.0)
    assert stacked.shape == (24,)
    assert np.array_equal(stacked, [harmonic_component(tr, 100.0, 51200.0) for tr in traces])


@pytest.mark.parametrize("frequency", [100.0, 150.0, 800.0])
def test_harmonic_component_is_the_dft_bin(frequency):
    trace = np.random.default_rng(5).normal(0.5, 0.1, 10240)
    k = round(frequency * trace.size / 51200.0)
    ref = 2.0 / trace.size * np.fft.fft(trace)[k]
    assert abs(harmonic_component(trace, frequency, 51200.0) - ref) <= 1e-12


def test_harmonic_parseval_bound():
    ring = paper_ring()
    dither = small_dither(ring, 0.2)
    trace = simulate_dither_trace(ws_unit(ring, ring), dither, WAVELENGTH)
    ac = trace - trace.mean()
    fs = dither.sample_rate
    freqs = (100.0, 150.0, 250.0, 300.0, 400.0, 500.0, 800.0)
    power = sum(abs(harmonic_component(ac, f, fs)) ** 2 / 2.0 for f in freqs)
    assert power <= np.mean(ac**2) * (1 + 1e-9)


@pytest.mark.parametrize("phi", [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
def test_align_scan_recovers_planted_detunings(phi):
    ring = paper_ring()
    lw = ring.linewidth_fwhm
    planted = (0.4 * lw, -0.3 * lw)
    unit = WsUnitConfig(ring, ring, channel_phase=phi, detunings=planted)
    dither = small_dither(ring)
    step = 0.1 * lw
    grid = np.arange(-0.7, 0.701, 0.1) * lw
    res = align_scan(unit, grid, grid, dither, WAVELENGTH)
    assert abs(res.detuning_demux + planted[0]) <= step * 1.001
    assert abs(res.detuning_mux + planted[1]) <= step * 1.001


def test_align_scan_map_symmetric_for_identical_rings():
    ring = paper_ring()
    lw = ring.linewidth_fwhm
    unit = ws_unit(ring, ring)
    grid = np.linspace(-0.4, 0.4, 7) * lw
    res = align_scan(unit, grid, grid, small_dither(ring), WAVELENGTH)
    # symmetric up to higher-order dither mixing (the tones differ per ring)
    assert np.abs(res.scan_map - res.scan_map.T).max() < 1e-4 * res.scan_map.max()


def test_align_scan_matches_per_cell_response():
    ring = paper_ring()
    lw = ring.linewidth_fwhm
    unit = WsUnitConfig(ring, ring, channel_phase=2.3, detunings=(0.2 * lw, -0.1 * lw))
    dither = small_dither(ring)
    grid_d = np.linspace(-0.5, 0.4, 4) * lw
    grid_m = np.linspace(-0.3, 0.6, 6) * lw
    res = align_scan(unit, grid_d, grid_m, dither, WAVELENGTH)
    t = dither.times
    dd = dither.amplitude * np.sin(2 * np.pi * dither.f_demux * t)
    dm = dither.amplitude * np.sin(2 * np.pi * dither.f_mux * t)
    ref = np.array([[abs(harmonic_component(
        np.abs(ws_unit_response(WAVELENGTH, unit, (gd + dd, gm + dm))) ** 2,
        dither.alignment_harmonic, dither.sample_rate)) for gm in grid_m]
        for gd in grid_d])
    assert res.scan_map.shape == (4, 6)
    assert np.abs(res.scan_map - ref).max() <= 1e-6 * ref.max()
    # one 20-ms period against the whole trace differ only by rounding; the
    # sums run over intensities of order 1, so it is absolute (1.3e-15
    # against a maximum of about 1e-5)
    assert np.abs(res.scan_map - ref).max() <= 1e-13


def per_cell_scan(unit, grid_demux, grid_mux, dither, probe_wavelength):
    """Reference map: one ws_unit_response call per cell over one dither period."""
    dd_t, dm_t = _dither_offsets(dither)
    t = dither.times[:_dither_period(dither)]
    kernel = np.exp(-2j * np.pi * dither.alignment_harmonic * t) * (2.0 / len(t))
    scan = np.zeros((len(grid_demux), len(grid_mux)))
    for i, gd in enumerate(grid_demux):
        for j, gm in enumerate(grid_mux):
            intensity = np.abs(ws_unit_response(probe_wavelength, unit,
                                                 (gd + dd_t, gm + dm_t))) ** 2
            scan[i, j] = abs(np.sum(intensity * kernel))
    return scan


@settings(max_examples=8, deadline=None)
@given(st.floats(0.0, 2 * np.pi), st.floats(0.01, 0.05),
       st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       st.integers(1, 9), st.integers(1, 9), st.floats(0.01, 0.2))
def test_align_scan_matches_the_per_cell_map(phase, coupling, detunings, rows, cols, fraction):
    ring = make_ring(WAVELENGTH, coupling, 1.2, 50e-6, 2.8)
    lw = ring.linewidth_fwhm
    unit = WsUnitConfig(ring, ring, channel_phase=phase,
                        detunings=tuple(d * lw for d in detunings))
    dither = small_dither(ring, fraction)
    grid_d = np.linspace(-0.6, 0.5, rows) * lw
    grid_m = np.linspace(-0.4, 0.7, cols) * lw
    ref = per_cell_scan(unit, grid_d, grid_m, dither, WAVELENGTH)
    i, j = np.unravel_index(np.argmax(ref), ref.shape)
    if i in (0, rows - 1) or j in (0, cols - 1):
        # the scan did not bracket the peak; with a small dither the map's
        # far edge can also be refused as flat
        with pytest.raises(PhysicsError, match="not bracketed|scan map is flat"):
            align_scan(unit, grid_d, grid_m, dither, WAVELENGTH)
        return
    # the grid's sums of separable factors add in another order than the
    # per-cell sums; both run over intensities of order 1, so the bound is
    # absolute
    assert np.abs(align_scan(unit, grid_d, grid_m, dither, WAVELENGTH).scan_map
                  - ref).max() <= 1e-15


def test_align_scan_zero_dither_is_degenerate():
    ring = paper_ring()
    unit = ws_unit(ring, ring)
    grid = np.linspace(-0.3, 0.3, 7) * ring.linewidth_fwhm
    for rows, cols in ((5, 5), (3, 7), (1, 4)):
        with pytest.raises(PhysicsError, match="scan map is flat"):
            align_scan(unit, grid[:rows], grid[:cols], DitherConfig(0.0), WAVELENGTH)


def test_fit_phase_curve_plant_and_recover():
    ring = paper_ring()
    unit = ws_unit(ring, ring)
    dither = small_dither(ring)
    p2pi, phi0 = 1.3, -0.9
    powers = np.linspace(0.0, 2.2 * p2pi, 24)
    traces = simulate_phase_sweep(unit, powers, p2pi, phi0, dither, WAVELENGTH)
    cal = fit_phase_curve(powers, traces, dither)
    assert cal.power_2pi == pytest.approx(p2pi, rel=0.01)
    assert abs(reduce_phase(cal.phase_offset - phi0)) < 0.01 * 2 * np.pi
    assert cal.residual_rms < 1e-4 * cal.amplitude


def test_fit_phase_curve_exact_when_model_matches_generator():
    # traces synthesized directly from the fitted curve model; (1.0, pi)
    # and (1.3, pi/2) left the covariance unestimable with forward
    # differences, and from (1.3, -pi/2) one start collapses to i0 = 0
    dither = DitherConfig(1e-12)
    i0 = 0.02
    t = dither.times
    carrier = np.cos(2 * np.pi * dither.phase_harmonic * t)
    for p2pi, phi0 in ((0.8, 1.1), (1.0, np.pi), (1.3, np.pi / 2), (1.3, -np.pi / 2)):
        powers = np.linspace(0.0, 2.0 * p2pi, 16)
        traces = [i0 * np.cos(2 * np.pi * p / p2pi + phi0 - np.pi) * carrier
                  for p in powers]
        cal = fit_phase_curve(powers, traces, dither)
        assert cal.power_2pi == pytest.approx(p2pi, rel=1e-9)
        assert abs(reduce_phase(cal.phase_offset - phi0)) < 1e-9
        assert cal.residual_rms < 1e-6 * cal.amplitude


def twelve_start_residual(powers, y):
    """Residual of the best of the twelve curve_fit starts of the former
    phase-curve fit (three periods times four phases), or None."""

    def model(p, i0, p2pi, phi0):
        return i0 * np.cos(2.0 * np.pi * p / p2pi + phi0)

    def jac(p, i0, p2pi, phi0):
        u = 2.0 * np.pi * p / p2pi + phi0
        return np.column_stack((np.cos(u), i0 * 2.0 * np.pi * p / p2pi**2 * np.sin(u),
                                -i0 * np.sin(u)))

    span = powers.max() - powers.min()
    min_period = 2.0 * float(np.median(np.diff(np.sort(powers))))
    best = None
    for p2pi_guess in (span, span / 2.0, 2.0 * span):
        for phi0_guess in (0.0, np.pi / 2.0, np.pi, -np.pi / 2.0):
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("error", OptimizeWarning)
                try:
                    popt, _ = curve_fit(model, powers, y,
                                        p0=(max(np.abs(y).max(), 1e-30), p2pi_guess,
                                            phi0_guess), jac=jac, maxfev=20000)
                except (RuntimeError, OptimizeWarning):
                    continue
                res = float(np.sqrt(np.mean((model(powers, *popt) - y) ** 2)))
            if abs(popt[1]) >= min_period and np.isfinite(res):
                best = res if best is None else min(best, res)
    return best


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 40), st.floats(0.0, 0.2), st.floats(0.5, 2.0),
       st.floats(-np.pi, np.pi), st.floats(1.2, 3.0), st.integers(0, 2**32 - 1))
def test_fit_phase_curve_reaches_the_best_of_the_former_starts(points, sigma, p2pi,
                                                                phi0, periods, seed):
    # the curve's values on the carrier of the phase harmonic, with noise of
    # sigma times the amplitude on each point
    dither = DitherConfig(1e-12)
    carrier = np.cos(2 * np.pi * dither.phase_harmonic * dither.times)
    powers = np.linspace(0.0, periods * p2pi, points)
    y = np.cos(2 * np.pi * powers / p2pi + phi0)
    y = y + sigma * np.random.default_rng(seed).standard_normal(points)
    traces = y[:, None] * carrier
    y = harmonic_component(traces, dither.phase_harmonic, dither.sample_rate).real
    cal = fit_phase_curve(powers, traces, dither)
    ref = twelve_start_residual(powers, y)
    # both stop within curve_fit's ftol (1.5e-8 on the squared residual) of
    # a minimum; on noiseless curves both reach rounding, about 1e-15 of the
    # unit amplitude
    assert ref is None or cal.residual_rms <= ref * (1 + 1e-7) + 1e-12


def test_fit_phase_curve_needs_enough_points_and_span():
    ring = paper_ring()
    dither = small_dither(ring)
    unit = ws_unit(ring, ring)
    powers = np.linspace(0.0, 2.2, 6)
    traces = simulate_phase_sweep(unit, powers, 1.0, 0.0, dither, WAVELENGTH)
    with pytest.raises(InvalidArgumentError):
        fit_phase_curve(powers, traces, dither)
    powers = np.linspace(0.0, 0.5, 10)  # half a period
    traces = simulate_phase_sweep(unit, powers, 1.0, 0.0, dither, WAVELENGTH)
    with pytest.raises(InvalidArgumentError):
        fit_phase_curve(powers, traces, dither)
    # the grid search takes a uniform sweep in any order, and nothing else
    carrier = np.cos(2 * np.pi * dither.phase_harmonic * dither.times)
    for powers in (np.sort(np.random.default_rng(7).uniform(0.0, 2.2, 24)),
                   np.repeat(np.linspace(0.0, 2.2, 12), 2)):
        traces = np.cos(2 * np.pi * powers + 0.4)[:, None] * carrier
        with pytest.raises(InvalidArgumentError, match="equal nonzero steps"):
            fit_phase_curve(powers, traces, dither)
    powers = np.linspace(2.2, 0.0, 24)
    traces = np.cos(2 * np.pi * powers + 0.4)[:, None] * carrier
    assert fit_phase_curve(powers, traces, dither).power_2pi == pytest.approx(1.0, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 400), st.floats(-5.0, 5.0), st.floats(-3.0, 1.0), st.floats(0.0, 0.3),
       st.floats(1.2, 3.0), st.floats(-np.pi, np.pi), st.integers(0, 2**32 - 1))
def test_period_grid_search_equals_a_per_frequency_projection(points, p0, log_step, sigma,
                                                              periods, phi0, seed):
    # a sweep off zero, so the FFT's shift to the first power counts; the
    # reference solves each frequency's 2-column least squares directly
    powers = p0 + 10.0**log_step * np.arange(points)
    span = powers[-1] - powers[0]
    y = np.cos(2 * np.pi * (powers - p0) * periods / span + phi0)
    y = y + sigma * np.random.default_rng(seed).standard_normal(points)
    size = 8 * (points - 1)
    best_fit, ref = -np.inf, None
    for k in range(1, size // 2 + 1):
        nu = k / (size * span / (points - 1))
        cols = np.column_stack((np.cos(2 * np.pi * nu * powers), np.sin(2 * np.pi * nu * powers)))
        gram = cols.T @ cols
        if np.linalg.det(gram) <= 1e-9 * points**2:
            continue
        a, b = np.linalg.solve(gram, cols.T @ y)
        fitted = a * (cols[:, 0] @ y) + b * (cols[:, 1] @ y)
        if fitted > best_fit:
            best_fit, ref = fitted, (np.hypot(a, b), 1.0 / nu, np.arctan2(-b, a))
    i0, p2pi, phase = _period_grid_search(powers, y)
    assert i0 == pytest.approx(ref[0], rel=1e-8)
    assert p2pi == pytest.approx(ref[1], rel=1e-8)
    assert abs(reduce_phase(phase - ref[2])) < 1e-8


@pytest.mark.parametrize("template", [
    lambda r: WsUnitConfig(r, r, 0.7),
    lambda r: ws_unit(r, r),
    lambda r: WsUnitConfig(r, r, -2.4, (-0.4 * r.linewidth_fwhm, 0.1 * r.linewidth_fwhm)),
    lambda r: WsUnitConfig(r, r, 1.9, (0.3 * r.linewidth_fwhm, -0.2e-12)),
])
@pytest.mark.parametrize("noise_sigma", [0.0, 1e-3])
def test_phase_sweep_matches_per_power_traces(template, noise_sigma):
    ring = paper_ring()
    unit = template(ring)
    dither = small_dither(ring)
    powers = np.linspace(0.0, 2.0, 9)
    traces = simulate_phase_sweep(unit, powers, 1.1, 0.3, dither, WAVELENGTH,
                                  noise_sigma=noise_sigma, rng=np.random.default_rng(4))
    rng = np.random.default_rng(4)
    for p, trace in zip(powers, traces):
        per_power = replace(ws_unit(ring, ring),
                            channel_phase=0.3 + 2 * np.pi * p / 1.1)
        ref = simulate_dither_trace(per_power, dither, WAVELENGTH,
                                    noise_sigma=noise_sigma, rng=rng)
        assert np.abs(trace - ref).max() <= 1e-12


def test_phase_sweep_blocks_give_single_power_sweeps_bit_for_bit():
    # each power's one-period intensity is its own row of the outer
    # products, so a sweep of 130 powers gives each single-power sweep
    ring = paper_ring()
    unit = ws_unit(ring, ring)
    dither = small_dither(ring)
    powers = np.linspace(0.0, 2.2, 130)
    traces = simulate_phase_sweep(unit, powers, 1.1, 0.3, dither, WAVELENGTH)
    for p, trace in zip(powers, traces):
        single = simulate_phase_sweep(unit, [p], 1.1, 0.3, dither, WAVELENGTH)
        assert single[0].tobytes() == trace.tobytes()


def test_noisy_phase_sweep_needs_a_generator():
    # an unseeded draw would make the sweep differ from run to run
    ring = paper_ring()
    args = (ws_unit(ring, ring), np.linspace(0.0, 2.0, 9), 1.1, 0.3,
            small_dither(ring), WAVELENGTH)
    with pytest.raises(InvalidArgumentError, match="seeded generator"):
        simulate_phase_sweep(*args, noise_sigma=1e-3)
    with pytest.raises(InvalidArgumentError, match="seeded generator"):  # before any trace
        simulate_phase_sweep(args[0], [], *args[2:], noise_sigma=1e-3)
    assert np.array_equal(simulate_phase_sweep(*args, noise_sigma=0.0),
                          simulate_phase_sweep(*args))
    assert simulate_phase_sweep(args[0], [], *args[2:]).shape == (0, 10240)

