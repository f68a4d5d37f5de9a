import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfpsim.eom import RfDrive, eom_operator, truncation_order
from qfpsim.errors import (InvalidArgumentError, OutOfRangeError,
                           UndefinedFidelityError)
from qfpsim.lattice import make_lattice
from qfpsim.qfp import (ProcessorConfig, _beamsplitter_block, alpha_for_theta,
                        beamsplitter_config, beamsplitter_spectra, compose_qfp, fidelity,
                        gauge_distance, intrinsic_phases, jbar,
                        reconstruct_submatrix, reconstruction_residual,
                        rt_closed_form, simulate_output_spectrum,
                        single_pm_balanced_probability, submatrix,
                        success_probability, synthesize_gate, target_unitary)

DELTA = 0.8169
LAT = make_lattice(193.7e12, 25e9, 20)
BINS = (0, 1)


def splitting_at_pi(delta):
    """T/(R+T) at alpha = pi, the largest splitting the depth reaches."""
    r, t = rt_closed_form(np.pi, delta)
    return t / (r + t)


def bs_block(alpha, delta=DELTA, lat=LAT):
    return submatrix(compose_qfp(beamsplitter_config(alpha, delta, lat, BINS)),
                     BINS)


def test_alpha_zero_is_transparent():
    r, t = rt_closed_form(0.0, DELTA)
    assert r == pytest.approx(1.0, abs=1e-14)
    assert t == pytest.approx(0.0, abs=1e-14)


def test_closed_form_matches_full_matrix_on_magnitudes():
    for delta in (0.4, DELTA, 1.2):
        for alpha in np.linspace(np.pi, 2 * np.pi, 17):
            r, t = rt_closed_form(alpha, delta)
            v = bs_block(alpha, delta)
            assert abs(v[0, 0]) ** 2 == pytest.approx(r, abs=1e-10)
            assert abs(v[0, 1]) ** 2 == pytest.approx(t, abs=1e-10)
            assert abs(v[1, 0]) ** 2 == pytest.approx(t, abs=1e-10)
            assert abs(v[1, 1]) ** 2 == pytest.approx(r, abs=1e-10)


def test_block_at_pi_is_real_beamsplitter_form():
    v = bs_block(np.pi)
    r, t = rt_closed_form(np.pi, DELTA)
    expect = np.array([[np.sqrt(r), np.sqrt(t)], [np.sqrt(t), -np.sqrt(r)]])
    assert np.abs(v - expect).max() < 1e-12


def test_success_probability_and_fidelity_metrics():
    v = bs_block(np.pi)
    p = success_probability(v)
    assert 0.94 < p < 1.0
    u = target_unitary(np.pi / 2, 0.0, 0.0)
    f = fidelity(v, u)
    assert 0.999 < f <= 1.0
    # global phase invariance
    assert fidelity(np.exp(0.7j) * v, u) == pytest.approx(f, abs=1e-12)
    with pytest.raises(UndefinedFidelityError):
        fidelity(np.zeros((2, 2)), u)


def test_target_unitary_is_unitary():
    for args in ((0.3, 0.5, -1.1), (np.pi / 2, 0.0, 0.0), (1.0, 2.0, 3.0)):
        u = target_unitary(*args)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-14


def test_jbar_value_and_zero_depth():
    assert jbar(DELTA) == pytest.approx(0.239, abs=1e-3)
    assert jbar(0.0) == 0.0


def test_alpha_for_theta_inverts_splitting():
    for theta in (0.2, 0.8, 1.3):
        alpha = alpha_for_theta(theta, DELTA)
        r, t = rt_closed_form(alpha, DELTA)
        assert t / (r + t) == pytest.approx(np.sin(theta / 2) ** 2, abs=1e-10)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.3, 4.0), st.floats(0.0, 1.0))
def test_alpha_for_theta_inverts_splitting_at_any_depth(delta, fraction):
    theta_max = min(2.0 * np.arcsin(np.sqrt(splitting_at_pi(delta))), np.pi / 2)
    theta = fraction * theta_max
    alpha = alpha_for_theta(theta, delta)
    assert np.pi <= alpha <= 2.0 * np.pi
    r, t = rt_closed_form(alpha, delta)
    assert t / (r + t) == pytest.approx(np.sin(theta / 2) ** 2, abs=1e-10)


def test_alpha_for_theta_clamps_at_maximum_splitting():
    assert splitting_at_pi(DELTA) < 0.5
    assert alpha_for_theta(np.pi / 2, DELTA) == pytest.approx(np.pi)
    with pytest.raises(OutOfRangeError):
        alpha_for_theta(np.pi / 2 + 0.02, DELTA)
    with pytest.raises(OutOfRangeError):
        alpha_for_theta(-0.1, DELTA)


def test_synthesize_gate_hits_random_targets():
    rng = np.random.default_rng(42)
    for _ in range(10):
        delta = rng.uniform(0.3, 4.0)
        theta_max = min(2.0 * np.arcsin(np.sqrt(splitting_at_pi(delta))), np.pi / 2)
        theta = rng.uniform(0.05, 0.95) * theta_max
        lam = rng.uniform(-np.pi, np.pi)
        mu = rng.uniform(-np.pi, np.pi)
        margin = truncation_order(delta)
        b0 = int(rng.integers(LAT.l_min + margin, LAT.l_max - margin))
        bins = (b0, b0 + 1)
        cfg = synthesize_gate(theta, lam, mu, delta, LAT, bins)
        v = submatrix(compose_qfp(cfg), bins)
        assert fidelity(v, target_unitary(theta, lam, mu)) > 1 - 1e-10


def test_identity_gate_block():
    cfg = synthesize_gate(0.0, 0.0, 0.0, DELTA, LAT, BINS)
    v = submatrix(compose_qfp(cfg), BINS)
    assert abs(v[0, 0]) ** 2 > 0.999
    assert abs(v[0, 1]) ** 2 < 1e-10


def test_intrinsic_phases_vanish_at_pi():
    lam0, mu0 = intrinsic_phases(np.pi, DELTA)
    assert abs(lam0) < 1e-10 and abs(mu0) < 1e-10


def composed_intrinsic_phases(v):
    """The Euler phases of a composed block, as gate synthesis read them
    before the closed form: column and row phases against V_00."""
    ref = np.angle(v[0, 0])
    return np.angle(v[0, 1]) - ref, np.angle(v[1, 0]) - ref


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 4.0), st.floats(0.0, 2 * np.pi), st.data())
def test_closed_form_block_matches_the_composed_beamsplitter(delta, alpha, data):
    # a window that meets the margin, and any adjacent pair inside it
    margin = max(truncation_order(delta), 1)
    half_width = data.draw(st.integers(margin + 1, margin + 12))
    b0 = data.draw(st.integers(margin - half_width, half_width - margin - 1))
    lat = make_lattice(193.7e12, 25e9, half_width)
    bins = (b0, b0 + 1)
    v = submatrix(compose_qfp(beamsplitter_config(alpha, delta, lat, bins)), bins)
    block = _beamsplitter_block(alpha, delta)
    assert np.abs(block - v).max() < 1e-13
    # an entry good to ~2e-16 has its phase good to ~2e-16 / |entry|, and the
    # phases are read against V_00, which vanishes at alpha = pi on a zero of J_0
    if min(abs(v[0, 0]), abs(v[0, 1])) >= 1e-5:
        for got, want in zip(intrinsic_phases(alpha, delta), composed_intrinsic_phases(v)):
            assert abs(np.remainder(got - want + np.pi, 2 * np.pi) - np.pi) < 1e-10


def test_computational_bins_must_be_adjacent_and_interior():
    with pytest.raises(InvalidArgumentError):
        beamsplitter_config(np.pi, DELTA, LAT, (0, 2))
    op = compose_qfp(beamsplitter_config(np.pi, DELTA, LAT, BINS))
    with pytest.raises(InvalidArgumentError):
        submatrix(op, (LAT.l_min, LAT.l_min + 1))


def test_simulate_output_spectrum_conserves_power():
    cfg = beamsplitter_config(np.pi, DELTA, LAT, BINS)
    spec = simulate_output_spectrum(cfg, {0: 1.0})
    assert np.sum(spec) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(InvalidArgumentError):
        simulate_output_spectrum(cfg, {0: 2.0})


def test_beamsplitter_spectra_match_single_probe_spectra():
    cfg = synthesize_gate(0.9, 0.4, -1.1, DELTA, LAT, BINS)
    spectra = beamsplitter_spectra(cfg, gammas=(0.0, np.pi, np.pi / 2))
    s = 1.0 / np.sqrt(2.0)
    probes = {"bin0": {0: 1.0}, "bin1": {1: 1.0}}
    for g in (0.0, np.pi, np.pi / 2):
        probes[f"gamma:{g:.17g}"] = {0: s, 1: np.exp(1j * g) * s}
    assert spectra.keys() == probes.keys()
    for key, amp in probes.items():
        single = simulate_output_spectrum(cfg, amp)
        assert np.abs(spectra[key] - single).max() <= 1e-15


def test_reconstruct_with_quadrature_probes_is_exact():
    for alpha in (np.pi, 4.2, 5.5):
        cfg = beamsplitter_config(alpha, DELTA, LAT, BINS)
        v = submatrix(compose_qfp(cfg), BINS)
        spectra = beamsplitter_spectra(
            cfg, gammas=(0.0, np.pi, np.pi / 2, 3 * np.pi / 2))
        v_rec = reconstruct_submatrix(spectra, LAT, BINS)
        assert gauge_distance(v_rec, v) < 1e-6
        assert reconstruction_residual(v_rec, spectra, LAT, BINS) < 1e-10


def test_reconstruct_with_two_probes_up_to_conjugation():
    cfg = beamsplitter_config(4.5, DELTA, LAT, BINS)
    v = submatrix(compose_qfp(cfg), BINS)
    spectra = beamsplitter_spectra(cfg, gammas=(0.0, np.pi))
    v_rec = reconstruct_submatrix(spectra, LAT, BINS)
    err = min(gauge_distance(v_rec, v), gauge_distance(v_rec.conj(), v))
    assert err < 1e-6
    assert reconstruction_residual(v_rec, spectra, LAT, BINS) < 1e-10


def _probe_spectra(v, gammas):
    """Probe spectra of a 2x2 block by definition, zero off the computational bins."""
    idx = [LAT.index_of(b) for b in BINS]

    def window(rows):
        s = np.zeros(LAT.size)
        s[idx] = rows
        return s

    spectra = {"bin0": window(np.abs(v[:, 0]) ** 2), "bin1": window(np.abs(v[:, 1]) ** 2)}
    for g in gammas:
        spectra[f"gamma:{g:.17g}"] = window(
            0.5 * np.abs(v[:, 0] + np.exp(1j * g) * v[:, 1]) ** 2)
    return spectra


@settings(max_examples=200, deadline=None)
@given(st.floats(0.2, np.pi - 0.2), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi),
       st.floats(0.3, 1.0), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi),
       st.booleans())
def test_reconstruct_random_blocks(theta, lam, mu, scale, row0, row1, quadrature):
    # a block proportional to a unitary, with arbitrary row phases
    v = scale * np.exp(1j * np.array([[row0], [row1]])) * target_unitary(theta, lam, mu)
    gammas = (0.0, np.pi, np.pi / 2, 3 * np.pi / 2) if quadrature else (0.0, np.pi)
    spectra = _probe_spectra(v, gammas)
    v_rec = reconstruct_submatrix(spectra, LAT, BINS)
    assert reconstruction_residual(v_rec, spectra, LAT, BINS) < 1e-10
    if quadrature:
        assert gauge_distance(v_rec, v) < 1e-6
    else:
        assert min(gauge_distance(v_rec, v), gauge_distance(v_rec.conj(), v)) < 1e-6
        assert v_rec[0, 1].imag >= 0


def test_single_pm_balanced_splitting_is_bounded():
    delta_star, prob = single_pm_balanced_probability()
    assert 1.3 < delta_star < 1.6
    assert prob < 0.70


def test_processor_config_validates_window():
    drive = RfDrive(DELTA, 0.0)
    with pytest.raises(InvalidArgumentError):
        ProcessorConfig(drive, drive, (), LAT, (0, 3))
    with pytest.raises(InvalidArgumentError):
        ProcessorConfig(drive, drive, (), LAT, (LAT.l_max, LAT.l_max + 1))
    # the pair must lie truncation_order(depth) bins from the window edge
    k = truncation_order(DELTA)
    narrow = make_lattice(193.7e12, 25e9, k + 1)
    ProcessorConfig(drive, drive, (), narrow, (0, 1))
    narrow = make_lattice(193.7e12, 25e9, k)
    with pytest.raises(OutOfRangeError):
        ProcessorConfig(drive, drive, (), narrow, (0, 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=LAT.size, max_size=LAT.size),
       st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(-np.pi, np.pi))
def test_compose_order_is_out_ws_in(phases, depth_in, depth_out, rf_phase):
    cfg = ProcessorConfig(RfDrive(depth_in, rf_phase), RfDrive(depth_out, 0.0),
                          tuple(phases), LAT, BINS)
    op = compose_qfp(cfg)
    m_in = eom_operator(cfg.in_drive, LAT).entries
    m_out = eom_operator(cfg.out_drive, LAT).entries
    d = np.diag(np.exp(1j * np.array(phases)))
    assert np.abs(op.entries - m_out @ d @ m_in).max() < 1e-14
