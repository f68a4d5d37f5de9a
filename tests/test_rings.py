import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c

from qfpsim.errors import InvalidArgumentError
from qfpsim.lattice import make_lattice
from qfpsim.rings import (RingParams, WsUnitConfig, _ring_ports, _ws_power_factors, make_ring,
                          mzi_pump_filter, reduce_phase, ws_operator, ws_unit,
                          ws_unit_response)

WAVELENGTH = c / 193.7e12


def paper_ring():
    return make_ring(WAVELENGTH, 0.023, 1.2, 50e-6, 2.8)


def test_lossless_add_drop_conserves_power():
    ring = make_ring(WAVELENGTH, 0.023, 0.0, 50e-6, 2.8)
    probe = WAVELENGTH + np.linspace(-3, 3, 101) * ring.linewidth_fwhm
    through, drop = _ring_ports(probe, ring)
    total = np.abs(through) ** 2 + np.abs(drop) ** 2
    assert np.abs(total - 1.0).max() < 1e-12


def test_loaded_q_in_characterized_band():
    ring = paper_ring()
    assert 4e4 < ring.loaded_q < 7e4


def test_on_channel_drop_loss_in_characterized_band():
    # channel path traverses the demux and mux drop ports in series
    ring = paper_ring()
    unit = ws_unit(ring, ring)
    loss_db = -10.0 * np.log10(abs(ws_unit_response(WAVELENGTH, unit)) ** 2)
    assert 4.0 < loss_db < 7.0


def test_fsr_matches_circumference():
    ring = paper_ring()
    expect = WAVELENGTH**2 / (2.8 * 2 * np.pi * 50e-6)
    assert ring.fsr_wavelength == pytest.approx(expect, rel=1e-12)


def test_through_dip_on_resonance():
    ring = paper_ring()
    on = np.abs(_ring_ports(WAVELENGTH, ring)[0]) ** 2
    off = np.abs(_ring_ports(WAVELENGTH + 30 * ring.linewidth_fwhm, ring)[0]) ** 2
    assert on < 0.2 and off > 0.9


def test_linewidth_is_fwhm_of_drop_peak():
    ring = paper_ring()
    half = WAVELENGTH + ring.linewidth_fwhm / 2.0
    peak = np.abs(_ring_ports(WAVELENGTH, ring)[1]) ** 2
    at_half = np.abs(_ring_ports(half, ring)[1]) ** 2
    assert at_half == pytest.approx(peak / 2.0, rel=5e-2)


def test_phase_mode_imprints_channel_phase_lossless():
    ring = make_ring(WAVELENGTH, 0.023, 0.0, 50e-6, 2.8)
    for phi in (0.0, np.pi / 2, np.pi, -2.0):
        unit = WsUnitConfig(ring, ring, channel_phase=phi)
        resp = ws_unit_response(WAVELENGTH, unit)
        err = np.angle(resp * np.exp(-1j * phi))
        assert abs(err) < 1e-10
        assert abs(resp) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_phase_mode_phase_error_with_loss_is_bounded():
    ring = paper_ring()
    unit = WsUnitConfig(ring, ring, channel_phase=np.pi / 2)
    resp = ws_unit_response(WAVELENGTH, unit)
    assert abs(np.angle(resp * np.exp(-1j * np.pi / 2))) < 0.2


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 2 * np.pi), st.floats(0.01, 0.05), st.floats(0.01, 0.05),
       st.integers(1, 6), st.integers(1, 6), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_power_factors_sum_to_the_unit_power(phase, kappa_d, kappa_m, rows, cols, samples,
                                             seed):
    # rows x N demux ports against columns x N mux ports, broadcast as an
    # alignment grid does; detunings within +-2 linewidths of each ring
    demux, mux = (make_ring(WAVELENGTH, kappa, 1.2, 50e-6, 2.8) for kappa in (kappa_d, kappa_m))
    rng = np.random.default_rng(seed)
    det_d = rng.uniform(-2, 2, (rows, samples)) * demux.linewidth_fwhm
    det_m = rng.uniform(-2, 2, (cols, samples)) * mux.linewidth_fwhm
    factors = _ws_power_factors(phase, _ring_ports(WAVELENGTH, demux, det_d),
                                _ring_ports(WAVELENGTH, mux, det_m))
    total = sum(d[:, None] * m[None] for d, m in zip(*factors))
    unit = WsUnitConfig(demux, mux, channel_phase=phase)
    power = np.abs(ws_unit_response(WAVELENGTH, unit, (det_d[:, None], det_m[None]))) ** 2
    assert len(factors[0]) == len(factors[1]) == 4
    assert np.all(np.imag(total) == 0.0)
    # both sides are powers of at most 1 reached by different routes of about
    # a dozen roundings each (the factor sum up to ~10 eps, |a + b|^2 up to
    # ~4 eps), so they agree to a few ulps of 1, not to the last bit
    assert np.abs(np.real(total) - power).max() <= 16 * np.finfo(float).eps


def test_ws_operator_ideal_is_diagonal_phases():
    lat = make_lattice(193.7e12, 25e9, 4)
    phases = np.zeros(lat.size)
    phases[lat.index_of(0)], phases[lat.index_of(2)] = 1.1, -0.3
    d = ws_operator(tuple(phases), lat)
    assert d.shape == (lat.size,)
    assert d[lat.index_of(0)] == pytest.approx(np.exp(1.1j))
    assert d[lat.index_of(2)] == pytest.approx(np.exp(-0.3j))
    # phase 0 passes a bin unchanged, exactly
    others = np.delete(d, [lat.index_of(0), lat.index_of(2)])
    assert np.array_equal(others, np.ones(lat.size - 2))


@pytest.mark.parametrize("size", [0, 8, 10])
def test_ws_operator_rejects_a_phase_vector_of_the_wrong_length(size):
    lat = make_lattice(193.7e12, 25e9, 4)
    with pytest.raises(InvalidArgumentError):
        ws_operator(np.zeros(size), lat)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_reduce_phase_keeps_the_phasor(phase):
    reduced = reduce_phase(phase)
    assert type(reduced) is float and -math.pi <= reduced <= math.pi
    if abs(phase) <= math.pi:
        assert reduced == phase  # untouched, bit for bit
    else:  # math.cos and math.sin reduce their argument exactly
        assert abs(math.cos(reduced) - math.cos(phase)) <= 4e-16
        assert abs(math.sin(reduced) - math.sin(phase)) <= 4e-16


def test_mzi_pump_filter_extremes():
    floor = 10 ** (-30.0 / 10.0)
    assert mzi_pump_filter(0.0, 500e9, 30.0) == pytest.approx(floor)
    assert mzi_pump_filter(250e9, 500e9, 30.0) == pytest.approx(1.0)
    assert mzi_pump_filter(0.0, 500e9, 30.0, phase_offset=np.pi / 2) == pytest.approx(1.0)


def test_mzi_pump_filter_rejects_overflowing_phase():
    with pytest.raises(InvalidArgumentError):
        mzi_pump_filter(np.arange(3) * 13.25e9, 1e-300, 30.0)


def test_make_ring_validation():
    with pytest.raises(InvalidArgumentError):
        make_ring(WAVELENGTH, 1.5, 1.2, 50e-6, 2.8)
    with pytest.raises(InvalidArgumentError):
        make_ring(WAVELENGTH, 0.023, -1.0, 50e-6, 2.8)


@pytest.mark.parametrize("power_coupling, round_trip_loss, radius, index", [
    (0.023, 0.99, 1e-300, 1e-300),  # the optical length underflows to zero
    (0.023, 0.99, 1e-322, 2.8),     # the FSR overflows
    (1e-17, 1.0, 50e-6, 2.8),       # lossless and uncoupled: zero linewidth
])
def test_ring_rejects_non_finite_fsr_or_linewidth(power_coupling, round_trip_loss,
                                                  radius, index):
    with pytest.raises(InvalidArgumentError):
        RingParams(WAVELENGTH, power_coupling, round_trip_loss, radius, index)
