"""End-to-end checks of the reproduction command line."""

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import qfpsim
from qfpsim import cli
from qfpsim.cli import main
from qfpsim.qfp import rt_closed_form


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(command, cfg_path, out_dir, *extra):
    return main([command, "--config", cfg_path, "--out", str(out_dir), *extra])


NAN, INF = float("nan"), float("inf")


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


def test_beamsplitter_sweep_takes_one_bessel_row_per_closed_form(tmp_path, monkeypatch):
    # one closed-form call for the whole alpha column and one for the summary
    calls = []
    bessel_row = qfpsim.qfp.bessel_row
    monkeypatch.setattr(qfpsim.qfp, "bessel_row",
                        lambda *args: calls.append(args) or bessel_row(*args))
    assert _run("beamsplitter", _write_cfg(tmp_path, {}), tmp_path / "out") == 0
    assert len(calls) <= 2


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
    path.write_bytes(b'{"theta": "\xff"}')  # not UTF-8
    assert _run("gate", str(path), tmp_path / "out") == 2


# configs of the rerun check that exercise noise or a non-default path
RERUN_PAYLOADS = {"beamsplitter": {"alpha_points": 5},
                  "gate": {"theta": 0.9, "lam": 0.4, "mu": -1.1},
                  "tomography": {"shots": 2000.0, "fringe_shots": 5e4},
                  "calibrate": {"noise_sigma": 0.01}}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_reruns_are_byte_identical(tmp_path, command):
    cfg = _write_cfg(tmp_path, RERUN_PAYLOADS.get(command, {}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(command, cfg, out_a, "--seed", "7") == 0
    assert _run(command, cfg, out_b, "--seed", "7") == 0
    assert sorted(p.name for p in out_a.iterdir()) == sorted(p.name for p in out_b.iterdir())
    for path in sorted(out_a.iterdir()):
        assert path.read_bytes() == (out_b / path.name).read_bytes()


def test_flat_fringe_exits_3_without_a_warning(tmp_path):
    # zero suppression carves the maximally mixed state, whose fringe is flat
    cfg = _write_cfg(tmp_path, {"suppression_db": 0})
    env = {**os.environ, "PYTHONPATH": str(Path(qfpsim.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "qfpsim.cli", "tomography", "--config", cfg,
                           "--out", str(tmp_path / "out"), "--expected-value"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert done.stderr.startswith("numerical failure: fringe fit failed")
    assert "Warning" not in done.stderr and len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize("command, config, code", [
    # wrongly typed
    ("beamsplitter", {"alpha_points": "x"}, 2),
    ("beamsplitter", {"alpha_min": "a"}, 2),
    ("gate", {"theta": "a"}, 2),
    ("gate", {"lam": [1]}, 2),
    ("gate", {"computational_bins": [0, True]}, 2),
    ("spectrum", {"input_bin": "x"}, 2),
    ("tomography", {"suppression_db": None}, 2),
    ("calibrate", {"planted_detunings": ["a", 1]}, 2),
    ("qwalk", {"planted_phases": "ab"}, 2),
    ("qwalk", {"walk_depth": "1"}, 2),
    ("beamsplitter", {"constants": {"half_width": 2.7}}, 2),
    # not finite
    ("beamsplitter", {"alpha_min": NAN}, 2),
    ("beamsplitter", {"constants": {"depth": NAN}}, 2),
    ("gate", {"theta": INF}, 2),
    # out of range
    ("tomography", {"constants": {"car": 0}}, 2),
    ("tomography", {"constants": {"car": -3}}, 2),
    ("tomography", {"shots": -5}, 2),
    ("tomography", {"shots": 0}, 2),
    ("tomography", {"shots": 1e300}, 2),
    ("tomography", {"fringe_shots": 1e300}, 2),
    ("tomography", {"fringe_points": 0}, 2),
    ("qwalk", {"num_pairs": 1}, 2),
    ("calibrate", {"constants": {"ring_radius": 0}}, 2),
    ("calibrate", {"constants": {"effective_index": 0}}, 2),
    ("calibrate", {"constants": {"center_frequency": 1e-300}}, 2),
    ("calibrate", {"noise_sigma": -1}, 2),
    ("calibrate", {"power_2pi": -1}, 2),
    ("beamsplitter", {"constants": {"half_width": 100000}}, 2),
    # accepted: an integral float for an integer, Infinity for "no accidentals"
    ("beamsplitter", {"alpha_points": 8.0}, 0),
    ("tomography", {"constants": {"car": INF}}, 0),
    # out of range together: each value is in range, but they underflow the ring's FSR
    ("calibrate", {"constants": {"ring_radius": 1e-300, "effective_index": 1e-300}}, 2),
    # the pump-filter phase overflows (it used to give NaN comb weights)
    ("qwalk", {"constants": {"pump_filter_fsr": 1e-300}}, 2),
    # the phase-curve fit under- or overflows from every start (it used to warn)
    ("calibrate", {"power_2pi": 1e-200}, 3),
    ("calibrate", {"power_2pi": 1e200}, 3),
    ("calibrate", {"noise_sigma": 1e200}, 3),
])
def test_config_exit_codes(tmp_path, command, config, code):
    assert _run(command, _write_cfg(tmp_path, config), tmp_path / "out") == code


def test_expected_value_only_on_tomography(tmp_path):
    cfg = _write_cfg(tmp_path, {})
    with pytest.raises(SystemExit) as exc:
        _run("gate", cfg, tmp_path / "out", "--expected-value")
    assert exc.value.code == 2


def test_help_lists_fields_and_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gate", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "theta" in text and "default 1.5707963267948966" in text
    assert "half_width" in text and "default 16" in text


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def _assert_exits_cleanly(command, config):
    """The command exits 0, 2 or 3, and on success writes strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = _run(command, _write_cfg(Path(tmp), config), out)
        assert code in (0, 2, 3)
        if code == 0:
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=_reject_constant)


# One field or constant of the default config replaced by a value of the
# wrong type, or a non-finite, zero, negative or non-integral number.  No
# large valid size is drawn: a valid half_width of 10^4 allocates gigabytes.
_DRAWN = st.one_of(
    st.sampled_from([NAN, INF, -INF, 0, 0.0, -1, -0.5, 2.5]),
    st.integers(-5, -1), st.floats(-10.0, -0.01),
    st.one_of(st.text(max_size=3), st.none(), st.booleans(),
              st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
              st.lists(st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0)), max_size=3)))


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_config_exits_cleanly(command, data):
    targets = [(name, False) for name in cli.COMMANDS[command].fields]
    name, constant = data.draw(st.sampled_from(targets + [(n, True) for n in cli.CONSTANTS]))
    value = data.draw(_DRAWN)
    config = {"constants": {name: value}} if constant else {name: value}
    _assert_exits_cleanly(command, config)


# A number of either sign and any magnitude from 1e-300 to 1e300, often a
# moderate one so that several fields can be in range together, or a
# non-finite one.  Integral magnitudes (10^k, k >= 0) reach integer fields too.
_EXTREME = st.one_of(
    st.builds(lambda sign, k: sign * 10.0**k, st.sampled_from([1.0, -1.0]),
              st.integers(-300, 300) | st.integers(-4, 4)),
    st.sampled_from([NAN, INF, -INF, 0.0]))


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@seed(20260)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_config_of_several_fields_exits_cleanly(command, data):
    # two or three fields and constants changed together: values that are
    # each in range can still be out of range together
    targets = ([(name, False) for name in cli.COMMANDS[command].fields]
               + [(name, True) for name in cli.CONSTANTS])
    chosen = data.draw(st.lists(st.sampled_from(targets), min_size=2, max_size=3,
                                unique=True))
    config = {"constants": {}}
    for name, constant in chosen:
        (config["constants"] if constant else config)[name] = data.draw(_EXTREME)
    _assert_exits_cleanly(command, config)
