from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

from qfpsim import qfp
from qfpsim.eom import (BESSEL_MAX_ARGUMENT, TRUNCATION_POWER_TOL, RfDrive, _phasors, _toeplitz,
                        bessel_row, eom_operator, truncation_order, unitarity_deficit)
from qfpsim.errors import InvalidArgumentError
from qfpsim.lattice import make_lattice
from qfpsim.qfp import _bessel_sums, compose_qfp

SQRT_TINY = np.sqrt(np.finfo(float).tiny)
EPS = np.finfo(float).eps


def _bessel_band(row, diff):
    """J_diff gathered from the row J_0, J_1, ..., with J_{-j} = (-1)^j J_j."""
    return row[np.abs(diff)] * np.where(diff % 2 == 1, np.sign(diff), 1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-BESSEL_MAX_ARGUMENT, BESSEL_MAX_ARGUMENT), st.integers(0, 512))
@example(0.0, 512)
@example(-0.0, 512)
@example(5e-324, 512)  # x / 2 underflows to 0
@example(1e-300, 512)
@example(BESSEL_MAX_ARGUMENT, 512)
@example(-BESSEL_MAX_ARGUMENT, 512)
def test_bessel_row_matches_jv(x, max_order):
    # scipy's jv is the independent reference: absolute error up to the
    # turning point and a little past it, relative error in the decaying
    # tail down to sqrt(tiny), below which the row may read 0
    row = bessel_row(max_order, x)
    k = np.arange(max_order + 1)
    ref = jv(k, x)
    err = np.abs(row - ref)
    inner = k <= abs(x) + 3.0 * abs(x) ** (1.0 / 3.0) + 3.0
    assert err[inner].max() <= 16 * EPS
    tail = ~inner & (np.abs(ref) >= SQRT_TINY)
    assert (err[tail] <= 1e-12 * np.abs(ref[tail])).all()
    assert (np.abs(ref[row == 0.0]) < SQRT_TINY).all()


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
    e = eom_operator(RfDrive(0.9, theta), lat).entries
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


def test_per_depth_values_match_jv_rows_on_a_dense_grid():
    for depth in np.linspace(0.0, BESSEL_MAX_ARGUMENT, 5001).tolist():
        ref = jv(np.arange(int(np.ceil(depth)) + 61), depth)
        # the smallest K with sum_{|j|>K} J_j^2 below the tolerance, each
        # tail summed from the far end
        tail = 2.0 * np.cumsum((ref**2)[:0:-1])[::-1]
        k = truncation_order(depth)
        assert k == np.flatnonzero(tail < TRUNCATION_POWER_TOL)[0]
        j0, s = _bessel_sums(depth)
        assert abs(j0 - ref[0]) <= 1e-15
        # jv's own s is up to 6 eps (1.3e-15) off near depth 49 (next test)
        assert abs(s - np.sum(ref[1:k + 6] * ref[:k + 5])) <= 2e-15


def test_bessel_sums_within_an_ulp_of_40_digits_where_jv_is_off():
    # at depth 49.21 jv's sum s is 6 eps off the 40-digit value
    mpmath = pytest.importorskip("mpmath")
    depth = 49.21
    k = truncation_order(depth)
    with mpmath.workdps(40):
        exact = [mpmath.besselj(j, depth) for j in range(k + 6)]
        s_exact = float(mpmath.fsum(exact[j] * exact[j - 1] for j in range(1, k + 6)))
    assert abs(_bessel_sums(depth)[1] - s_exact) <= EPS


def test_eom_operator_entries_are_bessel_sidebands():
    lat = make_lattice(193.7e12, 25e9, 8)
    theta = 0.7
    op = eom_operator(RfDrive(1.1, theta), lat)
    for m in (-3, 0, 2):
        for n in (-2, 0, 4):
            i, j = lat.index_of(m), lat.index_of(n)
            expect = jv(m - n, 1.1) * np.exp(1j * (m - n) * theta)
            assert op.entries[i, j] == pytest.approx(expect, abs=1e-12)


def test_eom_operator_is_toeplitz():
    lat = make_lattice(193.7e12, 25e9, 6)
    op = eom_operator(RfDrive(0.9, 0.3), lat)
    e = op.entries
    for k in range(1, lat.size):
        band = np.diagonal(e, offset=k)
        assert np.abs(band - band[0]).max() < 1e-15


def test_interior_unitarity():
    lat = make_lattice(193.7e12, 25e9, 20)
    op = eom_operator(RfDrive(0.8169, np.pi / 3), lat)
    margin = 2 * truncation_order(0.8169)
    assert unitarity_deficit(op, margin) < 1e-10


def test_disabled_drive_gives_identity():
    lat = make_lattice(193.7e12, 25e9, 6)
    op = eom_operator(RfDrive(0.0), lat)
    assert np.abs(op.entries - np.eye(lat.size)).max() < 1e-15


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="the reference phase needs a long double wider than a double")
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([16, 64]), st.floats(0.1, 4.0), st.floats(-np.pi, np.pi))
@example(64, 4.0, np.pi)  # 129 bins: the angle (m - k) phase rounded cost 128 eps
def test_eom_operator_entries_within_a_few_ulps_of_the_exact_sidebands(half_width, depth,
                                                                       phase):
    lat = make_lattice(193.7e12, 25e9, half_width)  # 33 and 129 bins
    diff = np.subtract.outer(lat.bins, lat.bins)
    # the phasors are under test here, so the magnitudes are the operator's own
    bessel = _bessel_band(bessel_row(lat.size - 1, depth), diff)
    # the angle (m - k) phase in long double, then cos and sin rounded to double
    angle = diff.astype(np.longdouble) * np.longdouble(phase)
    exact = bessel * (np.cos(angle).astype(float) + 1j * np.sin(angle).astype(float))
    entries = eom_operator(RfDrive(depth, phase), lat).entries
    kept = np.abs(bessel) > 1e-150
    rel = np.abs(entries[kept] - exact[kept]) / np.abs(exact[kept])
    assert rel.max() <= 4 * np.finfo(float).eps


def _reference_eom_entries(depth, phase, n):
    """The operator as d T d^dag, with T gathered from a real band of a
    Bessel row of its own and d the bins' phasors."""
    diff = np.arange(1 - n, n)
    row = bessel_row(n - 1, depth)
    # the operator stores Bessel values below sqrt(tiny) as 0, so that no
    # product of two of its entries is subnormal; the reference does too
    row[np.abs(row) < SQRT_TINY] = 0.0
    mag = row[np.abs(diff)]
    sign = np.where((diff < 0) & (np.abs(diff) % 2 == 1), -1.0, 1.0)
    band = mag * sign
    index = np.arange(n)
    d = _phasors(index - n // 2, phase)
    return d[:, None] * band[index[:, None] - index[None, :] + (n - 1)] * d.conj()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, BESSEL_MAX_ARGUMENT)),
       st.integers(1, 64), st.floats(-2.0 * np.pi, 2.0 * np.pi))
def test_depth_caches_match_fresh_evaluations(depth, half_width, phase):
    lat = make_lattice(193.7e12, 25e9, half_width)  # 3 to 129 bins
    n = lat.size
    cached = _toeplitz(depth, n)
    _toeplitz.cache_clear()
    at_phase_0 = eom_operator(RfDrive(depth), lat).entries
    # at phase 0 the real part of d T d^dag is T, except that a -0.0 of T
    # (J_{-j} = -J_j of an odd j at which J_j is 0) comes out 0.0
    assert (cached + 0.0).tobytes() == at_phase_0.real.tobytes()
    assert not at_phase_0.imag.any()
    # any phase multiplies the cached matrix as a fresh one, bit for bit
    entries = eom_operator(RfDrive(depth, phase), lat).entries
    assert entries.tobytes() == _reference_eom_entries(depth, phase, n).tobytes()
    # the per-depth values do not depend on the cache, nor on the sign of
    # a zero depth (repr and bytes tell -0.0 from 0.0)
    values = {truncation_order: lambda d: repr(truncation_order(d)),
              _bessel_sums: lambda d: repr(_bessel_sums(d)),
              _toeplitz: lambda d: _toeplitz(d, n).tobytes()}
    for fn, value in values.items():
        before = value(depth)
        fresh = []
        for d in (depth, -0.0, 0.0):
            fn.cache_clear()
            fresh.append(value(d))
        assert fresh[0] == before and fresh[1] == fresh[2]
    # a cached matrix is shared, so it must not be writable
    with pytest.raises(ValueError):
        _toeplitz(depth, n)[0, 0] = 1.0
    assert _toeplitz.cache_info().currsize <= _toeplitz.cache_info().maxsize == 2


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, BESSEL_MAX_ARGUMENT), st.integers(1, 64), st.integers(0, 2**32 - 1))
@example(1.0, 64, 0)  # 129 bins at depth 1: J_k below sqrt(tiny) from k = 85 on
def test_toeplitz_stores_bessel_values_below_sqrt_tiny_as_zero(depth, half_width, seed):
    lat = make_lattice(193.7e12, 25e9, half_width)  # 3 to 129 bins
    n = lat.size
    # T unfloored, gathered from a Bessel row of its own
    exact = _bessel_band(bessel_row(n - 1, depth), np.subtract.outer(np.arange(n), np.arange(n)))
    stored = _toeplitz(depth, n)
    small = np.abs(exact) < SQRT_TINY
    # each entry is the row's value bit for bit, or 0.0 where that is below sqrt(tiny)
    assert np.array_equal(stored[~small], exact[~small])
    assert not stored[small].any()
    assert not (np.abs(stored[stored != 0.0]) < SQRT_TINY).any()
    # the window rule guards the 2x2 block, not M, so a config without it
    # composes the whole window at any depth
    rng = np.random.default_rng(seed)
    config = SimpleNamespace(in_drive=RfDrive(depth, rng.uniform(-np.pi, np.pi)),
                             out_drive=RfDrive(depth, rng.uniform(-np.pi, np.pi)),
                             ws_phases=tuple(rng.uniform(-np.pi, np.pi, n)), lattice=lat)
    stored_m = compose_qfp(config).entries
    with patch.object(qfp, "_toeplitz", lambda d, size: exact):
        exact_m = compose_qfp(config).entries
    assert np.abs(stored_m - exact_m).max() <= n * SQRT_TINY
