"""End-to-end checks of the reproduction command line."""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import qfpsim
from qfpsim import cli, defaults, errors
from qfpsim.cli import main
from qfpsim.eom import truncation_order
from qfpsim.lattice import make_lattice
from qfpsim.qfp import (MIN_GATE_FIDELITY, beamsplitter_config, fidelity, pair_block,
                        rt_closed_form, success_probability, target_unitary)
from qfpsim.rings import reduce_phase


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
    # what depends on the depth alone is sliced from one Bessel row: the
    # window rule, the closed form's sums for the whole alpha column and the
    # summary, and both modulator matrices of both settings
    calls = []
    bessel_row = qfpsim.eom.bessel_row
    monkeypatch.setattr(qfpsim.eom, "bessel_row",
                        lambda *args: calls.append(args) or bessel_row(*args))
    for cached in (qfpsim.eom._depth_row, qfpsim.eom.truncation_order,
                   qfpsim.eom._toeplitz, qfpsim.qfp._bessel_sums):
        cached.cache_clear()
    assert _run("beamsplitter", _write_cfg(tmp_path, {}), tmp_path / "out") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("alpha_points", [1, 32, 1000])
def test_beamsplitter_sweep_composes_two_settings(tmp_path, monkeypatch, alpha_points):
    # the block is affine in e^{i alpha}, so the settings at 0 and pi give
    # it at every alpha, however many points the sweep has
    settings_made = []
    make = cli.beamsplitter_config
    monkeypatch.setattr(cli, "beamsplitter_config",
                        lambda *args: settings_made.append(args) or make(*args))
    cfg = _write_cfg(tmp_path, {"alpha_points": alpha_points})
    assert _run("beamsplitter", cfg, tmp_path / "out") == 0
    assert len(settings_made) == 2


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_beamsplitter_sweep_matches_the_per_point_blocks(data):
    # depth 0-4 on a window that meets the pair's margin or exceeds it, any
    # adjacent pair, alpha anywhere in +-1e3: every row within 4e-15 of the
    # figures of a block composed from that row's own setting
    depth = data.draw(st.floats(0.0, 4.0))
    margin = truncation_order(depth)
    half_width = margin + 1 + data.draw(st.integers(0, 30))
    b0 = data.draw(st.integers(margin - half_width, half_width - margin - 1))
    constants = {**{name: f.default for name, f in cli.CONSTANTS.items()},
                 "half_width": half_width, "depth": depth}
    cfg = {"alpha_min": data.draw(st.floats(-1e3, 1e3)),
           "alpha_max": data.draw(st.floats(-1e3, 1e3)),
           "alpha_points": data.draw(st.integers(1, 40)),
           "computational_bins": [b0, b0 + 1], "constants": constants}
    rows = cli.cmd_beamsplitter(cfg, None)["beamsplitter.csv"][1]
    lat = make_lattice(constants["center_frequency"], constants["bin_spacing"], half_width)
    for alpha, _, _, r, t, p, f in rows:
        v = pair_block(beamsplitter_config(alpha, depth, lat, (b0, b0 + 1)))
        r_v, t_v = abs(v[0, 0]) ** 2, abs(v[0, 1]) ** 2
        f_v = fidelity(v, target_unitary(2 * np.arcsin(np.sqrt(t_v / (r_v + t_v))), 0.0, 0.0))
        for got, want in ((r, r_v), (t, t_v), (p, success_probability(v)), (f, f_v)):
            assert abs(got - want) <= 4e-15, (alpha, got, want)


def test_gate_command(tmp_path):
    cfg = _write_cfg(tmp_path, {"theta": 1.2, "lam": 0.3, "mu": -0.4})
    out = tmp_path / "out"
    assert _run("gate", cfg, out) == 0
    summary = json.loads((out / "gate.json").read_text())
    assert summary["fidelity"] > 0.999
    assert summary["reconstruction_gauge_error"] < 1e-6


def test_gate_composes_the_pair_once(tmp_path, monkeypatch):
    # the gate's block and its probe spectra read the setting's one pair
    # composition
    calls = []
    composed = qfpsim.qfp._composed_columns
    monkeypatch.setattr(qfpsim.qfp, "_composed_columns",
                        lambda *args: calls.append(args) or composed(*args))
    assert _run("gate", _write_cfg(tmp_path, {}), tmp_path / "out") == 0
    assert len(calls) == 1


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


def test_qwalk_recovers_a_huge_planted_phase(tmp_path):
    # unreduced, the phase 1e17 (ulp 16) rounded the retrieval's offsets
    # away, and the fit missed its residual tolerance (exit 3)
    cfg = _write_cfg(tmp_path, {"num_pairs": 2, "planted_phases": [0, 1e17]})
    out = tmp_path / "out"
    assert _run("qwalk", cfg, out) == 0
    summary = json.loads((out / "qwalk_summary.json").read_text())
    assert summary["planted_phases"] == [0.0, 1e17]
    err = np.angle(np.exp(1j * (summary["recovered_phases"][1] - reduce_phase(1e17))))
    assert abs(err) < 1e-6


def _far_draw(num_pairs):
    return [0.0] + np.random.default_rng(4).uniform(-np.pi, np.pi, num_pairs - 1).tolist()


@pytest.mark.parametrize("planted, half_width", [
    # a draw on which none of eight Nelder-Mead restarts found the minimum
    ([0.0, -1.872969, 2.415567, 1.129788, 2.194315, 0.907519], None),
    # lifted designs of 2.4 and 9.6 MB, past the former size cap of the seed
    (_far_draw(32), 40),
    (_far_draw(64), 71),
], ids=["6-pairs", "32-pairs", "64-pairs"])
def test_qwalk_recovers_phases_far_from_zero(tmp_path, planted, half_width):
    payload = {"num_pairs": len(planted), "planted_phases": planted}
    if half_width is not None:
        payload["constants"] = {"half_width": half_width}
    cfg = _write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert _run("qwalk", cfg, out) == 0
    summary = json.loads((out / "qwalk_summary.json").read_text())
    err = np.angle(np.exp(1j * (np.array(summary["recovered_phases"]) - planted)))
    assert np.abs(err).max() < 1e-6


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


@pytest.mark.parametrize("fringe_shots, claimed", [(1, False), (2e5, True)])
def test_tomography_claims_a_violation_only_three_sigma_above_the_bound(tmp_path, fringe_shots,
                                                                        claimed):
    # one shot per fringe point fixes nothing: V = 2 with sigma 10.6
    cfg = _write_cfg(tmp_path, {"fringe_shots": fringe_shots})
    out = tmp_path / "out"
    assert _run("tomography", cfg, out, "--seed", "0") == 0
    summary = json.loads((out / "tomography_summary.json").read_text())
    assert summary["violates_classical_bound"] is claimed
    assert claimed == (summary["visibility"] - 3.0 * summary["visibility_sigma"] > 0.5**0.5)


# a pure state without accidentals: the rate product's rounding left zero rates
# at -1e-33, a negative Poisson mean (exit 1 on a traceback) and negative
# expected fringe counts
@pytest.mark.parametrize("bell_phase", [np.pi, 2 * np.pi])
@pytest.mark.parametrize("flags", [(), ("--expected-value",)])
def test_tomography_of_a_pure_state_without_accidentals(tmp_path, bell_phase, flags):
    cfg = _write_cfg(tmp_path, {"suppression_db": 200, "bell_phase": bell_phase,
                                "constants": {"car": INF}})
    out = tmp_path / "out"
    assert _run("tomography", cfg, out, *flags) == 0
    with open(out / "fringe.csv") as fh:
        assert min(float(row["counts"]) for row in csv.DictReader(fh)) >= 0.0


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
    assert not out.exists()


def test_non_finite_summary_is_physics_error(tmp_path, monkeypatch):
    # strict JSON: the value is rejected before any output file is written
    monkeypatch.setattr(cli, "purity", lambda rho: float("nan"))
    cfg = _write_cfg(tmp_path, {})
    out = tmp_path / "out"
    assert _run("tomography", cfg, out, "--expected-value") == 3
    assert not out.exists()


@pytest.mark.parametrize("error", [e for e in vars(errors).values()
                                   if isinstance(e, type) and issubclass(e, Exception)]
                         + [np.linalg.LinAlgError],
                         ids=lambda e: e.__name__)
def test_every_error_type_exits_2_or_3(tmp_path, monkeypatch, error):
    # a bad argument is a config error; a physics refusal, or a linear
    # algebra failure, is a numerical failure
    def fail(*args):
        raise error("planted")

    monkeypatch.setattr(cli, "load_config", fail)
    code = 2 if issubclass(error, errors.InvalidArgumentError) else 3
    assert _run("gate", "unused.json", tmp_path / "out") == code


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


def test_sampled_flat_fringe_exits_0_within_the_classical_bound(tmp_path):
    # Poisson noise on the maximally mixed state's flat fringe leaves a
    # fringe to fit, whose visibility is small and within the classical bound
    out = tmp_path / "out"
    assert _run("tomography", _write_cfg(tmp_path, {"suppression_db": 0}), out,
                "--seed", "0") == 0
    summary = json.loads((out / "tomography_summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert abs(summary["visibility"]) < 0.05
    assert not summary["violates_classical_bound"]


def test_calibrate_writes_the_same_bytes_under_one_and_two_blas_threads(tmp_path):
    # a per-row BLAS product in the harmonic gave other last bits under two threads
    cfg = _write_cfg(tmp_path, {})
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(qfpsim.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / threads
        done = subprocess.run([sys.executable, "-m", "qfpsim.cli", "calibrate", "--config", cfg,
                               "--out", str(out)], env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]


_IMPORT_PROBE = """
import json
import sys

import qfpsim.cli

package, runs = sys.argv[1], json.loads(sys.argv[2])


def loaded():
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))


report = [["import", loaded()]]
for argv in runs:
    assert qfpsim.cli.main(argv) == 0, argv
    report.append([" ".join(argv), loaded()])
print(json.dumps(report))
"""


def _modules_loaded_by(runs, package):
    """The modules of ``package`` loaded after importing qfpsim.cli and after
    each of ``runs``, one after another in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(qfpsim.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, package, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert len(loaded) == 1 + len(runs)
    return loaded


def test_no_command_loads_scipy(tmp_path):
    # importing scipy costs more than the rest of a cold command, and
    # qfpsim computes its Bessel rows and runs its solvers in numpy, so no
    # command loads a scipy module: each of the six on {}, a gate below its
    # largest splitting (brentq) and the expected-value tomography (MLE and
    # fringe fit), one after another in a fresh interpreter; pytest's
    # filterwarnings has imported scipy here
    default = str(_write_cfg(tmp_path, {}))
    runs = [[command, "--config", default, "--out", str(tmp_path / command)]
            for command in ("spectrum", "beamsplitter", "gate", "calibrate", "qwalk",
                            "tomography")]
    runs += [["gate", "--config", str(_write_cfg(tmp_path, {"theta": 1.2}, "gate.json")),
              "--out", str(tmp_path / "gate_1.2")],
             ["tomography", "--config", default, "--out", str(tmp_path / "expected"),
              "--expected-value"]]
    loaded = _modules_loaded_by(runs, "scipy")
    assert all(modules == [] for _, modules in loaded), loaded


def test_commands_that_draw_nothing_leave_numpy_random_unloaded(tmp_path):
    # only a command that draws builds a generator from its seed, so the
    # four that draw nothing never load numpy.random, at any seed
    default = str(_write_cfg(tmp_path, {}))
    runs = [[command, "--config", default, "--out", str(tmp_path / command), "--seed", "5"]
            for command in ("spectrum", "beamsplitter", "gate")]
    runs += [["tomography", "--config", default, "--out", str(tmp_path / "expected"),
              "--seed", "5", "--expected-value"]]
    loaded = _modules_loaded_by(runs, "numpy.random")
    assert all(modules == [] for _, modules in loaded), loaded


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_negative_seed_exits_2_with_the_usage_line(tmp_path, capsys, command):
    # numpy's generators take non-negative seeds only, so argparse refuses
    # -1 on every command, those that draw nothing included, and writes nothing
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _run(command, _write_cfg(tmp_path, {}), out, "--seed", "-1")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qfpsim {command}")
    assert "argument --seed: '-1' is not a non-negative integer" in err
    assert not out.exists()


def test_qwalk_draws_its_planted_phases_from_the_seed(tmp_path):
    # the planted phases are pair 0's reference 0 and one uniform draw in
    # [-0.1, 0.1) per other pair from the generator of the seed
    out = tmp_path / "out"
    assert _run("qwalk", _write_cfg(tmp_path, {}), out, "--seed", "3") == 0
    planted = json.loads((out / "qwalk_summary.json").read_text())["planted_phases"]
    draws = np.random.default_rng(3).uniform(-0.1, 0.1, defaults.NUM_COMB_PAIRS - 1)
    assert planted == [0.0] + draws.tolist()


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
    # theta = pi/2 beyond depth 0.2's reach: the clamped gate has fidelity 0.694
    ("gate", {"constants": {"depth": 0.2}}, 3),
    # a bin nearer the window edge than truncation_order(depth) loses power out
    # of the window (total_power 0.728, 0.88 % and 1.5e-5 of the walked state)
    ("spectrum", {"input_bin": 16}, 3),
    ("qwalk", {"walk_depth": 10}, 3),
    ("qwalk", {"num_pairs": 14}, 3),
    # a planted list of the wrong length is a bad config, whatever the window
    ("qwalk", {"num_pairs": 14, "planted_phases": [0.0]}, 2),
    # a deep walk over many pairs: the lifted design would take 352 MiB
    ("qwalk", {"num_pairs": 32, "walk_depth": 50, "constants": {"half_width": 104}}, 3),
    # the sweep to 2.2 power_2pi overflows (it used to warn of NaN traces)
    ("calibrate", {"power_2pi": 1e308}, 2),
    # Euler phases whose sum overflows are reduced first (they used to warn
    # and exit 3 on NaN); so is a phase offset that swamped the sweep's
    # phase (it used to exit 2 blaming the sweep)
    ("gate", {"lam": 1e308, "mu": 1e308}, 0),
    ("calibrate", {"phase_offset": 1e17}, 0),
    # the sweep fits in a float, but 2 pi times its last power does not
    ("calibrate", {"power_2pi": 1.3005079480713765e307}, 2),
    # the comb's pump-filter offsets overflow; noise whose harmonics overflow
    ("qwalk", {"constants": {"bin_spacing": 3.595386269724632e307}}, 2),
    ("calibrate", {"noise_sigma": 1.0749609013314589e306}, 3),
    # the scan's maximum on its edge: the scan did not bracket the peak (these
    # exited 0 with a detuning up to 2.5 grid steps off, or the edge itself)
    ("calibrate", {"planted_detunings": [0.3, 0.953], "scan_points": 25}, 3),
    ("calibrate", {"planted_detunings": [0.3, 0.6]}, 3),
    ("calibrate", {"planted_detunings": [0.128, 1.25], "scan_span": 1.0, "scan_points": 25}, 3),
    # an axis of one or two points never brackets a peak
    ("calibrate", {"scan_points": 1}, 2),
    ("calibrate", {"scan_points": 2}, 2),
    # a span beyond the largest float: linspace made inf and NaN step phases,
    # and the run wrote NaN rows (the CSV is not checked for finiteness)
    ("beamsplitter", {"alpha_min": -1e308, "alpha_max": 1e308}, 2),
    ("beamsplitter", {"alpha_min": -8e307, "alpha_max": 8e307}, 0),  # a finite span is run
    # the largest finite ends: linspace's products overflow, but every point is
    # finite (these warned on exit 0)
    ("beamsplitter", {"alpha_min": -1.7976931348623157e308}, 0),
    ("beamsplitter", {"alpha_min": 1.7976931348623157e308}, 0),
    ("beamsplitter", {"alpha_max": -1.7976931348623157e308}, 0),
    ("beamsplitter", {"alpha_max": 1.7976931348623157e308}, 0),
    # a walk of depth 0 mixes no pairs, so no grid ties a pair to pair 0
    ("qwalk", {"walk_depth": 0}, 3),
])
def test_config_exit_codes(tmp_path, command, config, code):
    out = tmp_path / "out"
    # no run, refused or not, leaves a warning on the user's stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(command, _write_cfg(tmp_path, config), out) == code
    assert not caught, [f"{w.category.__name__}: {w.message}" for w in caught]
    assert code == 0 or not out.exists()  # a failed run writes nothing


def test_one_shot_tomography_without_a_count_exits_0(tmp_path):
    # at --seed 3 every sampled count of one shot is 0, so the MLE seed's
    # linear inversion falls back to I/4; a real fallback crashed the seed
    # (a ValueError traceback and exit 1)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run("tomography", _write_cfg(tmp_path, {"shots": 1}), out, "--seed", "3") == 0
    assert not caught, [f"{w.category.__name__}: {w.message}" for w in caught]
    summary = json.loads((out / "tomography_summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["shots"] == 1.0 and 0.0 <= summary["fidelity_to_true"] <= 1.0


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert _run("gate", _write_cfg(tmp_path, {}), taken) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write --out") and err.count("\n") == 1
    assert taken.read_text() == ""


def test_failed_write_leaves_out_as_it_was(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "tomography_summary.json").mkdir(parents=True)
    (out / "fringe.csv").write_text("earlier run")

    def contents():
        return {str(p.relative_to(out)): None if p.is_dir() else p.read_bytes()
                for p in out.rglob("*")}

    before = contents()
    assert _run("tomography", _write_cfg(tmp_path, {}), out, "--expected-value") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write --out") and err.count("\n") == 1
    assert contents() == before


def test_write_failing_part_way_leaves_no_output(tmp_path, capsys, monkeypatch):
    # a full disk on the second file: the first one's temporary goes too, and
    # so does the --out directory the run created
    write_bytes, written = Path.write_bytes, []

    def filling(path, data):
        if written:
            raise OSError(28, "No space left on device")
        written.append(path)
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", filling)
    out = tmp_path / "out"
    assert _run("tomography", _write_cfg(tmp_path, {}), out, "--expected-value") == 2
    assert "No space left on device" in capsys.readouterr().err
    assert written and not out.exists()


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


def _assert_exits_cleanly(command, config, check=None) -> tuple:
    """The command exits 0, 2 or 3 and leaves no warning; on success it
    writes strict JSON, and on failure nothing.  On success ``check``, if
    given, is called with the config path and the output directory.
    Returns the exit code and the written JSON files as {name: value}."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg_path = _write_cfg(Path(tmp), config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _run(command, cfg_path, out)
        assert not caught, [f"{w.category.__name__}: {w.message}" for w in caught]
        assert code in (0, 2, 3)
        if code != 0:
            assert not out.exists()
        elif check is not None:
            check(cfg_path, out)
        return code, {path.name: json.loads(path.read_text(), parse_constant=_reject_constant)
                      for path in out.glob("*.json")}


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


# Integer sizes (window half-width, point and pair counts) are drawn no
# larger than this, so a window has at most 41 bins.
_SIZE_CAP = 20


def _table_number(data, kind: str, default, interval: str):
    """A number for a field of ``kind``: in seven draws of ten near the
    default, else an end of the field's interval (an integer's top end
    capped at _SIZE_CAP), +-1e-300, 5e-324 or a magnitude in [1e300, 1e308]."""
    integer = kind.startswith("int")
    base = default or 0
    if data.draw(st.integers(0, 9)) < 7:
        if integer:
            return base + data.draw(st.integers(-2, 2))
        return base + data.draw(st.floats(-0.5, 0.5)) * (abs(base) or 1.0)
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    ends = [lo, min(hi, _SIZE_CAP) if integer else hi]
    ends = [int(e) if integer and math.isfinite(e) else e for e in ends]
    big = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
                    st.floats(1e300, 1e308))
    return data.draw(st.sampled_from(ends + [1e-300, -1e-300, 5e-324]) | big)


def _table_value(data, field: cli.Field):
    """A value for ``field``; a list with a default keeps its entries'
    spacing and moves them all by one drawn offset."""
    if field.kind in ("real", "int"):
        return _table_number(data, field.kind, field.default, field.interval)
    kind = field.kind[:-1]
    if field.default is None:
        size = field.length or data.draw(st.integers(0, 8))
        return [_table_number(data, kind, None, field.interval) for _ in range(size)]
    offset = _table_number(data, kind, 0, field.interval)
    return [entry + offset for entry in field.default]


ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


def _load_oracle():
    """The benchmark's output checks, which rebuild the physics with scipy."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_beamsplitter(cfg_path, out):
    cfg = cli.load_config(cfg_path, "beamsplitter")
    with open(out / "beamsplitter.csv", newline="") as fh:
        table = np.array([[float(x) for x in row] for row in list(csv.reader(fh))[1:]])
    summary = json.loads((out / "beamsplitter_summary.json").read_text())
    _load_oracle().check_beamsplitter_output(cfg, table, summary, cfg["constants"]["depth"])


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@seed(21)
@settings(max_examples=50, deadline=None, database=None)
@given(data=st.data())
def test_configs_drawn_from_the_tables_keep_the_exit_code_contract(command, data):
    # up to three fields and constants of the command, each drawn from its
    # own kind, default and interval, so a new field is covered unedited
    fields = {**{(name, False): f for name, f in cli.COMMANDS[command].fields.items()},
              **{(name, True): f for name, f in cli.CONSTANTS.items()}}
    chosen = data.draw(st.lists(st.sampled_from(sorted(fields)), max_size=3, unique=True))
    config = {"constants": {}}
    for name, constant in chosen:
        (config["constants"] if constant else config)[name] = _table_value(
            data, fields[name, constant])
    # a beamsplitter run's rows must match the oracle's closed form
    code, summaries = _assert_exits_cleanly(
        command, config, _check_beamsplitter if command == "beamsplitter" else None)
    if command == "gate" and code == 0:
        assert summaries["gate.json"]["fidelity"] >= MIN_GATE_FIDELITY
