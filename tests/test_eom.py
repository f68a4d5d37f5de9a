import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from qfpsim.eom import (BESSEL_MAX_ARGUMENT, RfDrive, bessel_row,
                        eom_operator, truncation_order, unitarity_deficit)
from qfpsim.errors import InvalidArgumentError
from qfpsim.lattice import make_lattice


@settings(max_examples=60, deadline=None)
@given(st.floats(-BESSEL_MAX_ARGUMENT, BESSEL_MAX_ARGUMENT))
def test_bessel_row_power_sums_to_one(x):
    # J_0^2 + 2 sum_{k>=1} J_k^2 = 1
    row = bessel_row(int(abs(x)) + 60, x)
    assert row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2) == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, BESSEL_MAX_ARGUMENT), st.booleans())
def test_bessel_row_three_term_recurrence(x, negative):
    # J_{k-1}(x) + J_{k+1}(x) = (2k/x) J_k(x)
    x = -x if negative else x
    row = bessel_row(int(abs(x)) + 30, x)
    k = np.arange(1, len(row) - 1)
    assert np.abs(row[k - 1] + row[k + 1] - (2.0 * k / x) * row[k]).max() < 1e-13


def test_negative_order_parity():
    # the operator's lower band carries J_{-k} = (-1)^k J_k
    lat = make_lattice(193.7e12, 25e9, 8)
    theta = 0.4
    e = eom_operator(RfDrive(0.9, theta, 25e9), lat).entries
    row = bessel_row(7, 0.9)
    for k in range(1, 8):
        assert e[0, k] == pytest.approx(
            (-1) ** k * row[k] * np.exp(-1j * k * theta), abs=1e-15)


def test_negative_argument_parity():
    row, mirrored = bessel_row(12, -3.1), bessel_row(12, 3.1)
    assert np.abs(row - (-1.0) ** np.arange(13) * mirrored).max() < 1e-15


def test_argument_range_guard():
    bessel_row(3, BESSEL_MAX_ARGUMENT)
    with pytest.raises(InvalidArgumentError):
        bessel_row(0, 50.1)
    with pytest.raises(InvalidArgumentError):
        bessel_row(5, -51.0)


def test_truncation_order_controls_power_tail():
    for depth in (0.4, 0.8169, 1.2, 3.0):
        k = truncation_order(depth)
        row = bessel_row(k + 60, depth)
        tail = 2.0 * np.sum(row[k + 1:] ** 2)
        assert tail < 1e-14
        if k > 0:
            assert 2.0 * np.sum(row[k:] ** 2) >= 1e-14


def test_eom_operator_entries_are_bessel_sidebands():
    lat = make_lattice(193.7e12, 25e9, 8)
    theta = 0.7
    op = eom_operator(RfDrive(1.1, theta, 25e9), lat)
    for m in (-3, 0, 2):
        for n in (-2, 0, 4):
            i, j = lat.index_of(m), lat.index_of(n)
            expect = jv(m - n, 1.1) * np.exp(1j * (m - n) * theta)
            assert op.entries[i, j] == pytest.approx(expect, abs=1e-12)


def test_eom_operator_is_toeplitz():
    lat = make_lattice(193.7e12, 25e9, 6)
    op = eom_operator(RfDrive(0.9, 0.3, 25e9), lat)
    e = op.entries
    for k in range(1, lat.size):
        band = np.diagonal(e, offset=k)
        assert np.abs(band - band[0]).max() < 1e-15


def test_interior_unitarity():
    lat = make_lattice(193.7e12, 25e9, 20)
    op = eom_operator(RfDrive(0.8169, np.pi / 3, 25e9), lat)
    margin = 2 * truncation_order(0.8169)
    assert unitarity_deficit(op, margin) < 1e-10


def test_drive_frequency_must_match_lattice():
    lat = make_lattice(193.7e12, 25e9, 6)
    with pytest.raises(InvalidArgumentError):
        eom_operator(RfDrive(0.8, 0.0, 26e9), lat)


def test_disabled_drive_gives_identity():
    lat = make_lattice(193.7e12, 25e9, 6)
    op = eom_operator(RfDrive(0.8, 0.0, 25e9, enabled=False), lat)
    assert np.abs(op.entries - np.eye(lat.size)).max() < 1e-15
