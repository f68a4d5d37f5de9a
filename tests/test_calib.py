import numpy as np
import pytest
from scipy.constants import c

from qfpsim.calib import (DitherConfig, align_scan, fit_phase_curve,
                          harmonic_component, phase_from_power,
                          simulate_dither_trace, simulate_phase_sweep,
                          wrap_phase)
from qfpsim.errors import (DegenerateScanError, InvalidArgumentError)
from qfpsim.rings import (MODE_PASS, MODE_PHASE, MODE_STOP, WsUnitConfig, make_ring,
                          ws_unit, ws_unit_response)

WAVELENGTH = c / 193.7e12


def paper_ring():
    return make_ring(WAVELENGTH, 0.023, 1.2, 50e-6, 2.8)


def small_dither(ring, fraction=0.05):
    return DitherConfig(fraction * ring.linewidth_fwhm)


def test_dither_config_validation():
    with pytest.raises(InvalidArgumentError):
        DitherConfig(1e-12, f_demux=150.0, f_mux=150.0)
    with pytest.raises(InvalidArgumentError):
        DitherConfig(1e-12, sample_rate=1000.0)  # under-sampled harmonics
    with pytest.raises(InvalidArgumentError):
        DitherConfig(1e-12, f_demux=151.3, f_mux=250.0)  # non-commensurate
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


@pytest.mark.parametrize("mode", [MODE_PHASE, MODE_STOP])
def test_align_scan_matches_per_cell_response(mode):
    ring = paper_ring()
    lw = ring.linewidth_fwhm
    unit = WsUnitConfig(ring, ring, channel_phase=2.3, mode=mode,
                        detunings=(0.2 * lw, -0.1 * lw))
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


def test_align_scan_zero_dither_is_degenerate():
    ring = paper_ring()
    unit = ws_unit(ring, ring)
    grid = np.linspace(-0.3, 0.3, 5) * ring.linewidth_fwhm
    with pytest.raises(DegenerateScanError):
        align_scan(unit, grid, grid, DitherConfig(0.0), WAVELENGTH)


def test_fit_phase_curve_plant_and_recover():
    ring = paper_ring()
    unit = ws_unit(ring, ring)
    dither = small_dither(ring)
    p2pi, phi0 = 1.3, -0.9
    powers = np.linspace(0.0, 2.2 * p2pi, 24)
    traces = simulate_phase_sweep(unit, powers, p2pi, phi0, dither, WAVELENGTH)
    cal = fit_phase_curve(powers, traces, dither)
    assert cal.power_2pi == pytest.approx(p2pi, rel=0.01)
    assert abs(wrap_phase(cal.phase_offset - phi0)) < 0.01 * 2 * np.pi
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
        assert abs(wrap_phase(cal.phase_offset - phi0)) < 1e-9
        assert cal.residual_rms < 1e-6 * cal.amplitude


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


@pytest.mark.parametrize("template", [
    lambda r: ws_unit(r, r, MODE_PHASE, 0.7),
    lambda r: ws_unit(r, r, MODE_PASS),
    lambda r: ws_unit(r, r, MODE_STOP),
    lambda r: WsUnitConfig(r, r, 1.9, MODE_PHASE, (0.3 * r.linewidth_fwhm, -0.2e-12)),
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
        per_power = ws_unit(ring, ring, unit.mode, 0.3 + 2 * np.pi * p / 1.1)
        ref = simulate_dither_trace(per_power, dither, WAVELENGTH,
                                    noise_sigma=noise_sigma, rng=rng)
        assert np.abs(trace - ref).max() <= 1e-12


def test_phase_from_power_wraps():
    ring = paper_ring()
    dither = small_dither(ring)
    unit = ws_unit(ring, ring)
    powers = np.linspace(0.0, 2.2, 24)
    traces = simulate_phase_sweep(unit, powers, 1.0, 0.4, dither, WAVELENGTH)
    cal = fit_phase_curve(powers, traces, dither)
    assert phase_from_power(cal, 0.0) == pytest.approx(0.4, abs=1e-3)
    assert phase_from_power(cal, cal.power_2pi) == pytest.approx(0.4, abs=1e-3)
    assert phase_from_power(cal, cal.power_2pi / 2.0) == pytest.approx(
        wrap_phase(0.4 + np.pi), abs=1e-3)


def test_wrap_phase_interval():
    assert wrap_phase(np.pi) == -np.pi
    assert wrap_phase(-np.pi) == -np.pi
    assert wrap_phase(3 * np.pi + 0.1) == pytest.approx(0.1 - np.pi)
    assert -np.pi <= wrap_phase(123.456) < np.pi
