"""Acceptance suite: end-to-end physics and reproducibility guarantees.

Each test pins one released behavior of the simulator at its documented
tolerance; see README.md for the corresponding claims.
"""

import json

import numpy as np
import pytest

from qfpsim import defaults
from qfpsim.biphoton import (apply_joint, comb_envelope, comb_state,
                             diagonal_weight, jsi, jsi_fidelity,
                             retrieval_reference_offsets, retrieve_phases,
                             walk_operators, ws_idler_phases)
from qfpsim.calib import (DitherConfig, align_scan, fit_phase_curve,
                          simulate_phase_sweep)
from qfpsim.cli import main
from qfpsim.eom import bessel_row, truncation_order
from qfpsim.lattice import SPEED_OF_LIGHT, make_lattice
from qfpsim.qfp import (beamsplitter_config, beamsplitter_spectra,
                        compose_qfp, fidelity, gauge_distance, jbar,
                        reconstruct_submatrix, rt_closed_form, submatrix,
                        success_probability, synthesize_gate, target_unitary)
from qfpsim.rings import WsUnitConfig, _ring_ports, make_ring, ws_unit, ws_unit_response
from qfpsim.tomo import (bell_fringe, carve_bell_state,
                         fit_visibility, mle_reconstruct, simulate_counts,
                         state_fidelity)

DELTA = defaults.WORKING_DEPTH
LAT = make_lattice(defaults.CENTER_FREQUENCY, defaults.BIN_SPACING,
                   defaults.DEFAULT_HALF_WIDTH)
BINS = (0, 1)


# --- 1. closed-form anchors ---------------------------------------------

def test_closed_form_anchor_values():
    r, t = rt_closed_form(np.pi, DELTA)
    assert r == pytest.approx(0.4978, abs=5e-4)
    assert t == pytest.approx(0.4781, abs=5e-4)
    assert jbar(DELTA) == pytest.approx(0.239, abs=1e-3)


# --- 2. closed form matches the full composition ------------------------

def test_closed_form_matches_matrix_magnitudes():
    alphas = np.linspace(np.pi, 2 * np.pi, 32)
    for delta in (0.4, DELTA, 1.2):
        for alpha in alphas:
            r, t = rt_closed_form(alpha, delta)
            v = submatrix(compose_qfp(
                beamsplitter_config(alpha, delta, LAT, BINS)), BINS)
            mags = np.abs(v)
            expect = np.array([[np.sqrt(r), np.sqrt(t)],
                               [np.sqrt(t), np.sqrt(r)]])
            assert np.abs(mags - expect).max() < 1e-6


# --- 3. success probability ---------------------------------------------

def single_pm_balanced_probability() -> tuple:
    """(delta*, P) of the most balanced |J_0|^2 against |J_1|^2 splitting of
    a lone modulator over depths [0.5, 2.5]: the ~2/3 upper bound a single
    phase modulator can reach as a beamsplitter."""
    deltas = np.linspace(0.5, 2.5, 2001)
    power = np.array([bessel_row(1, d) for d in deltas]) ** 2
    best = int(np.argmin(np.abs(power[:, 0] - power[:, 1])))
    return float(deltas[best]), float(power[best, 0] + power[best, 1])


def test_success_probability_floor_and_single_modulator_bound():
    alphas = np.linspace(np.pi, 2 * np.pi, 64)
    probs = [success_probability(submatrix(compose_qfp(
        beamsplitter_config(a, DELTA, LAT, BINS)), BINS)) for a in alphas]
    assert min(probs) >= 0.94
    delta_star, p_single = single_pm_balanced_probability()
    assert 1.3 < delta_star < 1.6
    assert p_single < 0.70


# --- 4. identity interference -------------------------------------------

def test_opposed_modulators_cancel_on_interior_bins():
    op = compose_qfp(beamsplitter_config(0.0, DELTA, LAT, BINS))
    margin = truncation_order(DELTA)
    core = slice(margin, LAT.size - margin)
    block = op.entries[core, core]
    off_diag = block - np.diag(np.diag(block))
    assert np.abs(off_diag).max() < 1e-10


# --- 5. gate synthesis and reconstruction -------------------------------

def test_gate_synthesis_fidelity_targets():
    for theta, lam, mu in ((np.pi / 2, 0.0, 0.0), (np.pi / 2, 0.0, np.pi / 2)):
        cfg = synthesize_gate(theta, lam, mu, DELTA, LAT, BINS)
        v = submatrix(compose_qfp(cfg), BINS)
        assert fidelity(v, target_unitary(theta, lam, mu)) >= 0.999


def test_reconstruction_plant_and_recover():
    for alpha in (np.pi, 4.4, 5.7):
        cfg = beamsplitter_config(alpha, DELTA, LAT, BINS)
        v = submatrix(compose_qfp(cfg), BINS)
        spectra = beamsplitter_spectra(
            cfg, gammas=(0.0, np.pi, np.pi / 2, 3 * np.pi / 2))
        v_rec = reconstruct_submatrix(spectra, LAT, BINS)
        assert gauge_distance(v_rec, v) < 1e-6


# --- 6. quantum-walk dichotomy and phase retrieval -----------------------

PAIRS = [(l, -l) for l in range(1, defaults.NUM_COMB_PAIRS + 1)]


def _walk_pieces():
    env = comb_envelope(defaults.NUM_COMB_PAIRS, defaults.PUMP_FILTER_FSR,
                        defaults.BIN_SPACING,
                        defaults.PUMP_FILTER_EXTINCTION_DB)
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    return env, sig, idl


def test_walk_dichotomy():
    env, sig, idl = _walk_pieces()
    corr = apply_joint(comb_state(LAT, LAT, PAIRS, weights=env), sig, idl)
    anti = apply_joint(
        comb_state(LAT, LAT, PAIRS, weights=env,
                   phases=ws_idler_phases(PAIRS)),
        sig, idl)
    assert (diagonal_weight(anti, PAIRS)
            > diagonal_weight(corr, PAIRS) + 0.2)


def test_planted_phase_retrieval():
    env, sig, idl = _walk_pieces()
    base = comb_state(LAT, LAT, PAIRS, weights=env)
    rng = np.random.default_rng(17)
    planted = np.concatenate(([0.0],
                              rng.uniform(-0.1, 0.1, len(PAIRS) - 1)))
    reference = retrieval_reference_offsets(len(PAIRS))
    measurements = []
    for offsets in (np.zeros(len(PAIRS)), reference):
        st = comb_state(LAT, LAT, PAIRS, weights=env,
                        phases=planted + offsets)
        measurements.append((offsets,
                             jsi(apply_joint(st, sig, idl), "integral")))
    recovered = retrieve_phases(measurements, base, PAIRS, sig, idl)
    assert np.abs(recovered - planted).max() < 0.05
    rec_state = comb_state(LAT, LAT, PAIRS, weights=env, phases=recovered)
    fid = jsi_fidelity(jsi(apply_joint(rec_state, sig, idl), "integral"),
                       measurements[0][1])
    assert fid >= 0.99


# --- 7. dither-tone calibration ------------------------------------------

def _calib_ring():
    return make_ring(SPEED_OF_LIGHT / defaults.CENTER_FREQUENCY, defaults.POWER_COUPLING,
                     defaults.LOSS_DB_PER_CM, defaults.RING_RADIUS,
                     defaults.EFFECTIVE_INDEX)


def test_alignment_scan_recovers_planted_detunings():
    ring = _calib_ring()
    lw = ring.linewidth_fwhm
    dither = DitherConfig(0.05 * lw)
    probe = ring.resonance_wavelength
    grid = np.linspace(-0.6 * lw, 0.6 * lw, 13)
    step = grid[1] - grid[0]
    planted = (0.27 * lw, -0.18 * lw)
    for phase in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
        unit = WsUnitConfig(ring, ring, channel_phase=phase, detunings=planted)
        scan = align_scan(unit, grid, grid, dither, probe)
        assert abs(-scan.detuning_demux - planted[0]) <= step
        assert abs(-scan.detuning_mux - planted[1]) <= step


def test_phase_curve_fit_recovers_planted_parameters():
    ring = _calib_ring()
    dither = DitherConfig(0.05 * ring.linewidth_fwhm)
    probe = ring.resonance_wavelength
    unit = ws_unit(ring, ring)
    p2pi, phi0 = 1.3, 0.4
    powers = np.linspace(0.0, 2.2 * p2pi, 24)
    traces = simulate_phase_sweep(unit, powers, p2pi, phi0, dither, probe)
    cal = fit_phase_curve(powers, traces, dither)
    assert cal.power_2pi == pytest.approx(p2pi, rel=0.01)
    assert cal.phase_offset == pytest.approx(phi0, abs=0.01 * np.pi)


# --- 8. ring physics ------------------------------------------------------

def test_ring_quality_factor_and_channel_loss():
    ring = _calib_ring()
    assert 4e4 <= ring.loaded_q <= 7e4
    unit = ws_unit(ring, ring)
    amp = ws_unit_response(ring.resonance_wavelength, unit)
    loss_db = -10.0 * np.log10(abs(amp) ** 2)
    assert 4.0 <= loss_db <= 7.0


def test_lossless_ring_conserves_power():
    ring = make_ring(SPEED_OF_LIGHT / defaults.CENTER_FREQUENCY, defaults.POWER_COUPLING,
                     0.0, defaults.RING_RADIUS, defaults.EFFECTIVE_INDEX)
    probes = ring.resonance_wavelength + np.linspace(-2, 2, 41) * ring.linewidth_fwhm
    for wl in probes:
        t, d = _ring_ports(wl, ring)
        assert abs(abs(t) ** 2 + abs(d) ** 2 - 1.0) < 1e-12


# --- 9. tomography ---------------------------------------------------------

def test_mle_exact_on_expected_counts():
    rng = np.random.default_rng(4)
    for _ in range(3):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        records = simulate_counts(rho, 1e5)
        est = mle_reconstruct(records)
        assert state_fidelity(est, rho) == pytest.approx(1.0, abs=1e-6)


def test_mle_monte_carlo_median_fidelity():
    rng = np.random.default_rng(12)
    fids = []
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        records = simulate_counts(rho, 1e4, rng=rng)
        est = mle_reconstruct(records)
        fids.append(state_fidelity(est, rho))
    assert float(np.median(fids)) >= 0.98


def test_noisy_bell_state_fidelity_and_visibility_bands():
    rho = carve_bell_state(defaults.GUARD_SUPPRESSION_DB)
    shots = 1e4
    exact = simulate_counts(rho, shots)
    peak_rate = max(r.counts for r in exact) / shots
    accidental = peak_rate / defaults.CAR
    records = simulate_counts(rho, shots, accidental_fraction=accidental)
    est = mle_reconstruct(records)
    bell = carve_bell_state(np.inf)
    assert 0.93 <= state_fidelity(est, bell) <= 0.98

    phis = np.linspace(0.0, 2 * np.pi, 13)
    fringe = bell_fringe(rho, phis)
    counts = (fringe + fringe.max() / defaults.CAR) * 2e5
    fit = fit_visibility(phis, counts)
    assert 0.90 <= fit.visibility <= 0.97


# --- 10. deterministic command line ---------------------------------------

@pytest.mark.parametrize("command,payload", [
    ("beamsplitter", {"alpha_points": 5}),
    ("tomography", {"shots": 2000.0, "fringe_shots": 5e4}),
])
def test_cli_reruns_are_byte_identical(tmp_path, command, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main([command, "--config", str(cfg), "--out", str(out),
                   "--seed", "5"])
        assert rc == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
