import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfpsim.eom import RfDrive, eom_operator, truncation_order
from qfpsim.errors import (InvalidArgumentError, OutOfRangeError,
                           ReconstructionFailureError, UndefinedFidelityError)
from qfpsim.lattice import make_lattice
from qfpsim.qfp import (MIN_GATE_FIDELITY, QUADRATURE_GAMMAS, ProcessorConfig,
                        _block_entries, _composed_columns, _probe_table,
                        alpha_for_theta,
                        beamsplitter_config, beamsplitter_spectra, compose_qfp, fidelity,
                        gauge_distance, intrinsic_phases, jbar, pair_block,
                        reconstruct_submatrix, reconstruction_residual,
                        rt_closed_form, simulate_output_spectrum, submatrix,
                        success_probability, synthesize_gate, target_unitary)
from test_acceptance import single_pm_balanced_probability

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


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 0.75), st.floats(1e-6, 1e-3))
def test_alpha_for_theta_clamps_only_within_the_gate_fidelity(delta, step):
    # the clamped gate has fidelity cos^2((theta - theta_max)/2): the bound on
    # theta sits at theta_max + 2 arccos(sqrt(MIN_GATE_FIDELITY)), below pi/2 here
    theta_max = 2.0 * np.arcsin(np.sqrt(splitting_at_pi(delta)))
    inside, outside = (theta_max + 2.0 * np.arccos(np.sqrt(MIN_GATE_FIDELITY)) + d
                       for d in (-step, step))
    assert outside < np.pi / 2
    assert alpha_for_theta(inside, delta) == np.pi
    config = synthesize_gate(inside, 0.3, -0.2, delta, LAT, BINS)
    assert fidelity(submatrix(compose_qfp(config), BINS),
                    target_unitary(inside, 0.3, -0.2)) >= MIN_GATE_FIDELITY
    with pytest.raises(OutOfRangeError, match="gate fidelity"):
        alpha_for_theta(outside, delta)


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


def test_synthesize_gate_reduces_huge_euler_phases():
    # the gate depends on lam and mu only through exp(i lam) and exp(i mu);
    # unreduced, 1e17 * bin on the WS ramp kept nothing of them (fidelity 7.6e-34)
    theta, huge = 0.9, 1e17
    lam = mu = float(np.angle(np.exp(1j * huge)))
    assert abs(lam) <= np.pi and lam != huge
    want = fidelity(pair_block(synthesize_gate(theta, lam, mu, DELTA, LAT, BINS)),
                    target_unitary(theta, lam, mu))
    got = fidelity(pair_block(synthesize_gate(theta, huge, huge, DELTA, LAT, BINS)),
                   target_unitary(theta, huge, huge))
    assert want > 1 - 1e-10
    assert got == pytest.approx(want, abs=1e-12)


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
    v00, v01, v11 = _block_entries(alpha, delta)
    block = np.array([[v00, v01], [v01, v11]])
    assert np.abs(block - v).max() < 1e-13
    # an entry good to ~2e-16 has its phase good to ~2e-16 / |entry|, and the
    # phases are read against V_00, which vanishes at alpha = pi on a zero of J_0
    if min(abs(v[0, 0]), abs(v[0, 1])) >= 1e-5:
        for got, want in zip(intrinsic_phases(alpha, delta), composed_intrinsic_phases(v)):
            assert abs(np.remainder(got - want + np.pi, 2 * np.pi) - np.pi) < 1e-10


def test_computational_bins_must_be_adjacent_and_interior():
    with pytest.raises(InvalidArgumentError):
        beamsplitter_config(np.pi, DELTA, LAT, (0, 2))
    with pytest.raises(OutOfRangeError):
        beamsplitter_config(np.pi, DELTA, LAT, (LAT.l_min, LAT.l_min + 1))


def test_simulate_output_spectrum_conserves_power():
    cfg = beamsplitter_config(np.pi, DELTA, LAT, BINS)
    spec = simulate_output_spectrum(cfg, {0: 1.0})
    assert np.sum(spec) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(InvalidArgumentError):
        simulate_output_spectrum(cfg, {0: 2.0})
    # a bin with zero amplitude is not excited, so it may lie at the edge
    spec = simulate_output_spectrum(cfg, {0: 1.0, LAT.l_max: 0.0})
    assert np.sum(spec) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([DELTA, 2.0, 4.0]), st.floats(0.0, 2 * np.pi))
def test_spectrum_input_keeps_the_window_margin(delta, alpha):
    # an input bin truncation_order(delta) bins from the edge loses at most
    # rounding out of the window; one bin nearer is refused
    k = truncation_order(delta)
    lat = make_lattice(193.7e12, 25e9, k + 1)
    cfg = beamsplitter_config(alpha, delta, lat, BINS)
    spec = simulate_output_spectrum(cfg, {lat.l_max - k: 1.0})
    assert abs(np.sum(spec) - 1.0) < 1e-14
    with pytest.raises(OutOfRangeError):
        simulate_output_spectrum(cfg, {lat.l_max - k + 1: 1.0})


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi),
       st.floats(0.2, 3.0), st.lists(st.floats(0.0, 2 * np.pi), max_size=5, unique=True))
def test_beamsplitter_spectra_match_single_probe_spectra(fraction, lam, mu, delta, gammas):
    # any reachable gate: theta up to the largest splitting at this depth, and pi/2
    theta = fraction * min(2.0 * np.arcsin(np.sqrt(splitting_at_pi(delta))), np.pi / 2.0)
    cfg = synthesize_gate(theta, lam, mu, delta, LAT, BINS)
    spectra = beamsplitter_spectra(cfg, gammas=tuple(gammas))
    s = 1.0 / np.sqrt(2.0)
    probes = {"bin0": {0: 1.0}, "bin1": {1: 1.0}}
    for g in gammas:
        probes[f"gamma:{g:.17g}"] = {0: s, 1: np.exp(1j * g) * s}
    assert list(spectra) == list(probes)
    for key, amp in probes.items():
        single = simulate_output_spectrum(cfg, amp)
        assert np.abs(spectra[key] - single).max() <= 1e-15


def test_probe_table_is_built_once_and_read_only():
    keys, table = _probe_table(QUADRATURE_GAMMAS)
    assert _probe_table(QUADRATURE_GAMMAS)[1] is table
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    # the table from its definition, bit for bit
    s = 1.0 / np.sqrt(2.0)
    ref = np.array([[1.0, 0.0], [0.0, 1.0]]
                   + [[s, s * np.exp(1j * g)] for g in QUADRATURE_GAMMAS])
    assert keys == ("bin0", "bin1") + tuple(f"gamma:{g:.17g}" for g in QUADRATURE_GAMMAS)
    assert table.tobytes() == ref.tobytes()
    # a list of gammas is one more cache key, with the same spectra
    cfg = beamsplitter_config(4.2, DELTA, LAT, BINS)
    spectra = beamsplitter_spectra(cfg)
    listed = beamsplitter_spectra(cfg, gammas=list(QUADRATURE_GAMMAS))
    assert list(listed) == list(spectra)
    assert all(listed[k].tobytes() == spectra[k].tobytes() for k in spectra)
    # -0.0 and 0.0 share a key, and the table does not depend on which came first
    for first in (-0.0, 0.0):
        _probe_table.cache_clear()
        assert _probe_table((first,))[0] == ("bin0", "bin1", "gamma:0")
        assert _probe_table((-first,))[0] == ("bin0", "bin1", "gamma:0")


def test_reconstruct_with_quadrature_probes_is_exact():
    for alpha in (np.pi, 4.2, 5.5):
        cfg = beamsplitter_config(alpha, DELTA, LAT, BINS)
        v = submatrix(compose_qfp(cfg), BINS)
        spectra = beamsplitter_spectra(cfg)
        v_rec = reconstruct_submatrix(spectra, LAT, BINS)
        assert gauge_distance(v_rec, v) < 1e-6
        assert reconstruction_residual(v_rec, spectra, LAT, BINS) < 1e-10


def test_reconstruct_names_a_missing_quadrature_probe():
    spectra = beamsplitter_spectra(beamsplitter_config(4.5, DELTA, LAT, BINS))
    assert len(spectra) == 6
    key = f"gamma:{3 * np.pi / 2:.17g}"
    del spectra[key]
    with pytest.raises(ReconstructionFailureError, match=key):
        reconstruct_submatrix(spectra, LAT, BINS)
    with pytest.raises(ReconstructionFailureError, match=key):
        reconstruction_residual(np.eye(2), spectra, LAT, BINS)


def _probe_spectra(v):
    """Probe spectra of a 2x2 block by definition, zero off the computational bins."""
    idx = [LAT.index_of(b) for b in BINS]

    def window(rows):
        s = np.zeros(LAT.size)
        s[idx] = rows
        return s

    spectra = {"bin0": window(np.abs(v[:, 0]) ** 2), "bin1": window(np.abs(v[:, 1]) ** 2)}
    for g in QUADRATURE_GAMMAS:
        spectra[f"gamma:{g:.17g}"] = window(
            0.5 * np.abs(v[:, 0] + np.exp(1j * g) * v[:, 1]) ** 2)
    return spectra


@settings(max_examples=200, deadline=None)
@given(st.floats(0.2, np.pi - 0.2), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi),
       st.floats(0.3, 1.0), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
def test_reconstruct_random_blocks(theta, lam, mu, scale, row0, row1):
    # a block proportional to a unitary, with arbitrary row phases
    v = scale * np.exp(1j * np.array([[row0], [row1]])) * target_unitary(theta, lam, mu)
    spectra = _probe_spectra(v)
    v_rec = reconstruct_submatrix(spectra, LAT, BINS)
    assert reconstruction_residual(v_rec, spectra, LAT, BINS) < 1e-10
    assert gauge_distance(v_rec, v) < 1e-6


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


WIDE = make_lattice(193.7e12, 25e9, 64)  # the widest window the benchmark composes


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=WIDE.size, max_size=WIDE.size),
       st.floats(0.0, 4.0), st.floats(0.0, 4.0),
       st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
def test_compose_keeps_the_rf_phases_exact_on_a_wide_window(phases, depth_in, depth_out,
                                                             phase_in, phase_out):
    # the RF phases enter as diagonal phasors exp(i k phase) out to |k| = 64,
    # where rounding k * phase alone would miss the reference by 1e-14 or more
    cfg = ProcessorConfig(RfDrive(depth_in, phase_in), RfDrive(depth_out, phase_out),
                          tuple(phases), WIDE, BINS)
    m_in = eom_operator(cfg.in_drive, WIDE).entries
    m_out = eom_operator(cfg.out_drive, WIDE).entries
    d = np.diag(np.exp(1j * np.array(phases)))
    assert np.abs(compose_qfp(cfg).entries - m_out @ d @ m_in).max() < 1e-14


@pytest.mark.parametrize("lat", [LAT, WIDE])
def test_composed_columns_are_the_columns_of_the_composed_operator(lat):
    rng = np.random.default_rng(7)
    for depth_in, depth_out in ((DELTA, DELTA), (1.3, 3.1)):
        phase_in, phase_out = rng.uniform(-np.pi, np.pi, 2)
        cfg = ProcessorConfig(RfDrive(depth_in, phase_in), RfDrive(depth_out, phase_out),
                              tuple(rng.uniform(-2 * np.pi, 2 * np.pi, lat.size)), lat, BINS)
        full = compose_qfp(cfg).entries
        pair = [lat.index_of(b) for b in BINS]
        for idx in (pair, [lat.index_of(-3)]):
            assert np.abs(_composed_columns(cfg, idx) - full[:, idx]).max() <= 1e-15
        assert np.abs(pair_block(cfg) - submatrix(compose_qfp(cfg), BINS)).max() <= 1e-15


EPS = np.finfo(float).eps


def _setting_outputs(cfg):
    """Everything a setting composes, through each entry point of the kernel."""
    b0, b1 = cfg.computational_bins
    probe = {b0: np.sqrt(0.5), b1: 1j * np.sqrt(0.5)}
    spectra = beamsplitter_spectra(cfg)
    return ([compose_qfp(cfg).entries, pair_block(cfg), simulate_output_spectrum(cfg, probe)]
            + [spectra[k] for k in _probe_table(QUADRATURE_GAMMAS)[0]])


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 4.0), st.floats(0.0, 4.0), st.data())
def test_a_setting_builds_its_diagonals_once_and_composes_as_a_fresh_one(
        depth_in, depth_out, data):
    # a window that meets the margin of the larger depth, any adjacent pair inside it
    margin = max(truncation_order(depth_in), truncation_order(depth_out), 1)
    half_width = data.draw(st.integers(margin + 1, margin + 8))
    b0 = data.draw(st.integers(margin - half_width, half_width - margin - 1))
    lat = make_lattice(193.7e12, 25e9, half_width)
    phase = st.floats(-np.pi, np.pi)

    def draw_setting():
        ws = data.draw(st.lists(phase, min_size=lat.size, max_size=lat.size))
        return ProcessorConfig(RfDrive(depth_in, data.draw(phase)),
                               RfDrive(depth_out, data.draw(phase)),
                               tuple(ws), lat, (b0, b0 + 1))

    cfg, other = draw_setting(), draw_setting()
    first = _setting_outputs(cfg)
    diagonals = cfg._diagonals
    assert cfg._diagonals is diagonals
    assert not any(d.flags.writeable for d in diagonals)
    _setting_outputs(other)
    fresh = ProcessorConfig(cfg.in_drive, cfg.out_drive, cfg.ws_phases, lat,
                            cfg.computational_bins)
    assert fresh == cfg and hash(fresh) == hash(cfg)
    # bit for bit: again from the kept diagonals, and from a setting that builds its own
    for outputs in (_setting_outputs(cfg), _setting_outputs(fresh)):
        assert [a.tobytes() for a in outputs] == [a.tobytes() for a in first]
    # the vdot sums of the 2x2 figures against the trace forms; both are at most 1
    v = first[1]
    target = target_unitary(*(data.draw(phase) for _ in range(3)))
    p_trace = 0.5 * np.trace(v.conj().T @ v).real
    assert abs(success_probability(v) - p_trace) <= 4 * EPS
    if p_trace > 0.0:
        f_trace = abs(np.trace(v.conj().T @ target)) ** 2 / (4.0 * p_trace)
        assert abs(fidelity(v, target) - f_trace) <= 4 * EPS
