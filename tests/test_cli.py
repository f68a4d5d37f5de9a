"""End-to-end checks of the reproduction command line."""

import csv
import json

import numpy as np
import pytest

from qfpsim import cli
from qfpsim.cli import main
from qfpsim.qfp import rt_closed_form


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(command, cfg_path, out_dir, *extra):
    return main([command, "--config", cfg_path, "--out", str(out_dir), *extra])


def test_beamsplitter_outputs_and_anchor_row(tmp_path):
    cfg = _write_cfg(tmp_path, {"alpha_points": 9})
    out = tmp_path / "out"
    assert _run("beamsplitter", cfg, out) == 0
    with open(out / "beamsplitter.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    first = rows[0]  # alpha = pi
    r_cf, t_cf = rt_closed_form(np.pi, 0.8169)
    assert float(first["R_closed_form"]) == pytest.approx(r_cf, abs=1e-12)
    assert float(first["R_matrix"]) == pytest.approx(r_cf, abs=1e-6)
    assert float(first["T_matrix"]) == pytest.approx(t_cf, abs=1e-6)
    summary = json.loads((out / "beamsplitter_summary.json").read_text())
    assert summary["min_success_probability"] > 0.9


def test_gate_command(tmp_path):
    cfg = _write_cfg(tmp_path, {"theta": 1.2, "lam": 0.3, "mu": -0.4})
    out = tmp_path / "out"
    assert _run("gate", cfg, out) == 0
    summary = json.loads((out / "gate.json").read_text())
    assert summary["fidelity"] > 0.999
    assert summary["reconstruction_gauge_error"] < 1e-6


def test_gate_unreachable_angle_is_physics_error(tmp_path):
    cfg = _write_cfg(tmp_path, {"theta": 2.5})
    assert _run("gate", cfg, tmp_path / "out") == 3


def test_window_narrower_than_truncation_order_is_physics_error(tmp_path):
    cfg = _write_cfg(tmp_path, {"constants": {"depth": 6.0, "half_width": 3}})
    assert _run("beamsplitter", cfg, tmp_path / "out") == 3


def test_spectrum_command_conserves_power(tmp_path):
    cfg = _write_cfg(tmp_path, {"alpha": 3.5})
    out = tmp_path / "out"
    assert _run("spectrum", cfg, out) == 0
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert summary["total_power"] == pytest.approx(1.0, abs=1e-9)
    with open(out / "spectrum.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 33


def test_qwalk_command(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "planted_phases": [0.0, 0.1, -0.1, 0.05, -0.05, 0.1]})
    out = tmp_path / "out"
    assert _run("qwalk", cfg, out) == 0
    summary = json.loads((out / "qwalk_summary.json").read_text())
    assert (summary["diagonal_weight_anticorrelated"]
            > summary["diagonal_weight_correlated"] + 0.2)
    assert summary["reconstruction_jsi_fidelity"] > 0.99
    rec = np.array(summary["recovered_phases"])
    planted = np.array(summary["planted_phases"])
    assert np.abs(rec - planted).max() < 0.05
    for name in ("jsi_initial.csv", "jsi_correlated.csv",
                 "jsi_anticorrelated.csv"):
        assert (out / name).exists()


def test_tomography_expected_value(tmp_path):
    cfg = _write_cfg(tmp_path, {})
    out = tmp_path / "out"
    assert _run("tomography", cfg, out, "--expected-value") == 0
    summary = json.loads((out / "tomography_summary.json").read_text())
    assert 0.93 <= summary["fidelity_to_bell"] <= 0.98
    assert 0.90 <= summary["visibility"] <= 0.97
    assert summary["violates_classical_bound"]
    assert np.isfinite(summary["visibility_sigma"])
    assert 0.999 <= summary["fidelity_to_true"] <= 1.0
    for name in ("rho_real.csv", "rho_imag.csv", "fringe.csv"):
        assert (out / name).exists()


def test_calibrate_command(tmp_path):
    cfg = _write_cfg(tmp_path, {"planted_detunings": [0.25, -0.1]})
    out = tmp_path / "out"
    assert _run("calibrate", cfg, out) == 0
    summary = json.loads((out / "calibration.json").read_text())
    grid_step = 2 * 0.6 / 12  # scan_span over (scan_points - 1) steps
    assert abs(summary["recovered_detuning_demux_linewidths"]
               - 0.25) <= grid_step
    assert abs(summary["recovered_detuning_mux_linewidths"]
               - (-0.1)) <= grid_step
    assert summary["power_2pi_fit"] == pytest.approx(
        summary["power_2pi_true"], rel=1e-3)
    assert summary["phase_offset_fit"] == pytest.approx(
        summary["phase_offset_true"], abs=1e-3)


def test_alpha_points_below_one_is_config_error(tmp_path):
    cfg = _write_cfg(tmp_path, {"alpha_points": 0})
    out = tmp_path / "out"
    assert _run("beamsplitter", cfg, out) == 2
    assert not (out / "beamsplitter_summary.json").exists()


def test_non_finite_summary_is_physics_error(tmp_path, monkeypatch):
    # strict JSON: the value is rejected before the summary file is opened
    monkeypatch.setattr(cli, "purity", lambda rho: float("nan"))
    cfg = _write_cfg(tmp_path, {})
    out = tmp_path / "out"
    assert _run("tomography", cfg, out, "--expected-value") == 3
    assert not (out / "tomography_summary.json").exists()


def test_unknown_field_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, {"bogus_knob": 1.0})
    assert _run("beamsplitter", cfg, tmp_path / "out") == 2


def test_unknown_constant_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, {"constants": {"speed_of_light": 3e8}})
    assert _run("beamsplitter", cfg, tmp_path / "out") == 2


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert _run("beamsplitter", str(path), tmp_path / "out") == 2


def test_reruns_are_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, {"shots": 2000.0, "fringe_shots": 5e4})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run("tomography", cfg, out_a, "--seed", "7") == 0
    assert _run("tomography", cfg, out_b, "--seed", "7") == 0
    for path in sorted(out_a.iterdir()):
        assert path.read_bytes() == (out_b / path.name).read_bytes()
