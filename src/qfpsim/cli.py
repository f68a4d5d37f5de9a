"""Reproduction command line: each subcommand reruns one experiment from a
JSON config and writes plot-ready CSV tables plus a JSON summary.

Exit codes: 0 success, 2 config error, 3 numerical/physics failure.
Outputs are byte-identical across reruns with the same config and seed.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from . import defaults
from .biphoton import (apply_joint, comb_envelope, comb_state, diagonal_weight,
                       jsi, jsi_fidelity,
                       retrieval_reference_offsets, retrieve_phases,
                       walk_operators, ws_idler_phases)
from .calib import (DitherConfig, align_scan, fit_phase_curve,
                    simulate_phase_sweep)
from .errors import (DegenerateScanError, FitFailureError,
                     InvalidArgumentError, NonFiniteResultError,
                     OutOfRangeError, ReconstructionFailureError,
                     RetrievalFailureError, UndefinedFidelityError)
from .lattice import make_lattice
from .qfp import (beamsplitter_config, beamsplitter_spectra, compose_qfp,
                  fidelity, gauge_distance, reconstruct_submatrix,
                  rt_closed_form, simulate_output_spectrum, submatrix,
                  success_probability, synthesize_gate, target_unitary)
from .rings import WsUnitConfig, make_ring, ws_unit
from .tomo import (bell_fringe, carve_bell_state, fit_visibility,
                   mle_reconstruct, purity, simulate_counts, state_fidelity)

PHYSICS_ERRORS = (OutOfRangeError, FitFailureError, DegenerateScanError,
                  ReconstructionFailureError, RetrievalFailureError,
                  UndefinedFidelityError, NonFiniteResultError,
                  np.linalg.LinAlgError)


class ConfigError(Exception):
    """Raised for malformed or out-of-schema run configs."""


_CONSTANT_KEYS = {
    "center_frequency": defaults.CENTER_FREQUENCY,
    "bin_spacing": defaults.BIN_SPACING,
    "half_width": defaults.DEFAULT_HALF_WIDTH,
    "depth": defaults.WORKING_DEPTH,
    "power_coupling": defaults.POWER_COUPLING,
    "loss_db_per_cm": defaults.LOSS_DB_PER_CM,
    "ring_radius": defaults.RING_RADIUS,
    "effective_index": defaults.EFFECTIVE_INDEX,
    "pump_filter_fsr": defaults.PUMP_FILTER_FSR,
    "pump_filter_extinction_db": defaults.PUMP_FILTER_EXTINCTION_DB,
    "car": defaults.CAR,
}

_COMMAND_FIELDS = {
    "beamsplitter": {"alpha_min", "alpha_max", "alpha_points",
                     "computational_bins"},
    "gate": {"theta", "lam", "mu", "computational_bins"},
    "spectrum": {"alpha", "input_bin", "computational_bins"},
    "qwalk": {"num_pairs", "walk_depth", "planted_phases"},
    "tomography": {"suppression_db", "shots", "fringe_points",
                   "fringe_shots", "bell_phase"},
    "calibrate": {"dither_amplitude", "scan_points", "scan_span",
                  "planted_detunings", "power_2pi", "phase_offset",
                  "sweep_points", "noise_sigma"},
}


def load_config(path: str, command: str) -> dict:
    """Parse and schema-check a run config; unknown fields are rejected."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = _COMMAND_FIELDS[command] | {"constants"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    constants = dict(_CONSTANT_KEYS)
    user_constants = raw.get("constants", {})
    if not isinstance(user_constants, dict):
        raise ConfigError("'constants' must be an object")
    bad = set(user_constants) - set(_CONSTANT_KEYS)
    if bad:
        raise ConfigError(f"unknown constants: {sorted(bad)}")
    for key, val in user_constants.items():
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError(f"constant {key!r} must be a number")
        constants[key] = val
    cfg = {k: v for k, v in raw.items() if k != "constants"}
    cfg["constants"] = constants
    return cfg


def _fmt(value) -> str:
    """Stable text form: repr for floats so reruns are byte-identical."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinity raises before the file is opened."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResultError(f"{path.name}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _lattice_from(constants: dict):
    return make_lattice(constants["center_frequency"], constants["bin_spacing"],
                        int(constants["half_width"]))


def _comp_bins(cfg) -> tuple:
    bins = cfg.get("computational_bins", [0, 1])
    if (not isinstance(bins, list) or len(bins) != 2
            or not all(isinstance(b, int) for b in bins)):
        raise ConfigError("computational_bins must be two integers")
    return tuple(bins)


def cmd_beamsplitter(cfg: dict, out: Path, rng) -> dict:
    consts = cfg["constants"]
    lat = _lattice_from(consts)
    bins = _comp_bins(cfg)
    delta = consts["depth"]
    points = int(cfg.get("alpha_points", 32))
    if points < 1:
        raise ConfigError("alpha_points must be at least 1")
    alphas = np.linspace(cfg.get("alpha_min", np.pi),
                         cfg.get("alpha_max", 2 * np.pi), points)
    rows, min_p = [], np.inf
    for alpha in alphas:
        r_cf, t_cf = rt_closed_form(alpha, delta)
        v = submatrix(compose_qfp(beamsplitter_config(alpha, delta, lat, bins)),
                      bins)
        p = success_probability(v)
        denom = abs(v[0, 0]) ** 2 + abs(v[0, 1]) ** 2
        tgt_theta = 2 * np.arcsin(np.sqrt(abs(v[0, 1]) ** 2 / denom))
        f = fidelity(v, target_unitary(tgt_theta, 0.0, 0.0))
        min_p = min(min_p, p)
        rows.append([float(alpha), r_cf, t_cf,
                     float(abs(v[0, 0]) ** 2), float(abs(v[0, 1]) ** 2), p, f])
    write_csv(out / "beamsplitter.csv",
              ["alpha", "R_closed_form", "T_closed_form",
               "R_matrix", "T_matrix", "success_probability", "fidelity"],
              rows)
    r_pi, t_pi = rt_closed_form(np.pi, delta)
    summary = {"depth": float(delta), "R_at_pi": r_pi, "T_at_pi": t_pi,
               "min_success_probability": float(min_p),
               "alpha_points": int(len(alphas))}
    write_json(out / "beamsplitter_summary.json", summary)
    return summary


def cmd_gate(cfg: dict, out: Path, rng) -> dict:
    consts = cfg["constants"]
    lat = _lattice_from(consts)
    bins = _comp_bins(cfg)
    theta = float(cfg.get("theta", np.pi / 2))
    lam = float(cfg.get("lam", 0.0))
    mu = float(cfg.get("mu", 0.0))
    delta = consts["depth"]
    config = synthesize_gate(theta, lam, mu, delta, lat, bins)
    v = submatrix(compose_qfp(config), bins)
    target = target_unitary(theta, lam, mu)
    spectra = beamsplitter_spectra(
        config, gammas=(0.0, np.pi, np.pi / 2, 3 * np.pi / 2))
    v_rec = reconstruct_submatrix(spectra, lat, bins)
    summary = {
        "theta": theta, "lam": lam, "mu": mu, "depth": float(delta),
        "matrix_magnitude_squared": (np.abs(v) ** 2).tolist(),
        "matrix_phase": np.angle(v).tolist(),
        "success_probability": success_probability(v),
        "fidelity": fidelity(v, target),
        "reconstruction_gauge_error": gauge_distance(v_rec, v),
    }
    write_json(out / "gate.json", summary)
    return summary


def cmd_spectrum(cfg: dict, out: Path, rng) -> dict:
    consts = cfg["constants"]
    lat = _lattice_from(consts)
    bins = _comp_bins(cfg)
    alpha = float(cfg.get("alpha", np.pi))
    input_bin = int(cfg.get("input_bin", bins[0]))
    config = beamsplitter_config(alpha, consts["depth"], lat, bins)
    powers = simulate_output_spectrum(config, {input_bin: 1.0})
    write_csv(out / "spectrum.csv", ["bin", "power"],
              [[int(b), float(p)] for b, p in zip(lat.bins, powers)])
    summary = {"alpha": alpha, "input_bin": input_bin,
               "total_power": float(np.sum(powers))}
    write_json(out / "spectrum_summary.json", summary)
    return summary


def cmd_qwalk(cfg: dict, out: Path, rng) -> dict:
    consts = cfg["constants"]
    lat = _lattice_from(consts)
    num_pairs = int(cfg.get("num_pairs", defaults.NUM_COMB_PAIRS))
    depth = float(cfg.get("walk_depth", defaults.WALK_DEPTH))
    pairs = [(l, -l) for l in range(1, num_pairs + 1)]
    weights = comb_envelope(num_pairs, consts["pump_filter_fsr"],
                            consts["bin_spacing"],
                            consts["pump_filter_extinction_db"])
    initial = comb_state(lat, lat, pairs, weights=weights)
    sig, idl = walk_operators(depth, lat)
    anti_phases = ws_idler_phases(pairs, "anticorrelated")
    anti_state = comb_state(lat, lat, pairs, weights=weights,
                            phases=anti_phases)
    corr_out = apply_joint(initial, sig, idl)
    anti_out = apply_joint(anti_state, sig, idl)

    def dump_grid(name, state):
        grid = jsi(state, "max")
        write_csv(out / name, ["signal_bin"] + [str(b) for b in lat.bins],
                  [[int(bs)] + [float(x) for x in row]
                   for bs, row in zip(lat.bins, grid)])

    dump_grid("jsi_initial.csv", initial)
    dump_grid("jsi_correlated.csv", corr_out)
    dump_grid("jsi_anticorrelated.csv", anti_out)

    planted = cfg.get("planted_phases")
    if planted is None:
        planted = [0.0] + list(rng.uniform(-0.1, 0.1, num_pairs - 1))
    planted = [float(p) for p in planted]
    if len(planted) != num_pairs:
        raise ConfigError("planted_phases must have one entry per pair")
    reference = retrieval_reference_offsets(num_pairs)
    measurements = []
    for offsets in (np.zeros(num_pairs), reference):
        state = comb_state(lat, lat, pairs, weights=weights,
                           phases=np.asarray(planted) + offsets)
        measurements.append((offsets,
                             jsi(apply_joint(state, sig, idl), "integral")))
    recovered = retrieve_phases(measurements, initial, pairs, sig, idl)
    rec_state = comb_state(lat, lat, pairs, weights=weights, phases=recovered)
    fid = jsi_fidelity(jsi(apply_joint(rec_state, sig, idl), "integral"),
                       measurements[0][1])
    summary = {
        "walk_depth": depth, "num_pairs": num_pairs,
        "diagonal_weight_correlated": diagonal_weight(corr_out, pairs),
        "diagonal_weight_anticorrelated": diagonal_weight(anti_out, pairs),
        "planted_phases": planted,
        "recovered_phases": [float(p) for p in recovered],
        "reconstruction_jsi_fidelity": float(fid),
    }
    write_json(out / "qwalk_summary.json", summary)
    return summary


def cmd_tomography(cfg: dict, out: Path, rng, expected_value: bool) -> dict:
    suppression = float(cfg.get("suppression_db", defaults.GUARD_SUPPRESSION_DB))
    shots = float(cfg.get("shots", 1e4))
    bell_phase = float(cfg.get("bell_phase", 0.0))
    car = cfg["constants"]["car"]
    rho_true = carve_bell_state(suppression, bell_phase)
    # accidental floor referenced to the peak coincidence rate, as a
    # coincidence-to-accidental ratio is measured
    exact = simulate_counts(rho_true, shots)
    peak_rate = max(r.counts for r in exact) / shots
    accidental = peak_rate / car if np.isfinite(car) else 0.0
    records = simulate_counts(rho_true, shots,
                              accidental_fraction=accidental,
                              rng=None if expected_value else rng)
    rho_hat = mle_reconstruct(records)
    bell = carve_bell_state(np.inf, bell_phase)

    phis = np.linspace(0.0, 2 * np.pi, int(cfg.get("fringe_points", 13)))
    fringe = bell_fringe(rho_true, phis)
    fringe_shots = float(cfg.get("fringe_shots", 2e5))
    fringe_acc = float(fringe.max()) / car if np.isfinite(car) else 0.0
    fringe_counts = (fringe + fringe_acc) * fringe_shots
    if not expected_value:
        fringe_counts = rng.poisson(fringe_counts).astype(float)
    fit = fit_visibility(phis, fringe_counts)

    write_csv(out / "rho_real.csv", ["r0", "r1", "r2", "r3"],
              [[float(x) for x in row] for row in rho_hat.real])
    write_csv(out / "rho_imag.csv", ["r0", "r1", "r2", "r3"],
              [[float(x) for x in row] for row in rho_hat.imag])
    write_csv(out / "fringe.csv", ["phase", "counts"],
              [[float(p), float(c)] for p, c in zip(phis, fringe_counts)])
    summary = {
        "suppression_db": suppression, "shots": shots,
        "expected_value": bool(expected_value),
        "fidelity_to_true": state_fidelity(rho_hat, rho_true),
        "fidelity_to_bell": state_fidelity(rho_hat, bell),
        "purity": purity(rho_hat),
        "visibility": fit.visibility,
        "visibility_sigma": fit.visibility_sigma,
        "violates_classical_bound": bool(fit.violates_classical_bound),
    }
    write_json(out / "tomography_summary.json", summary)
    return summary


def cmd_calibrate(cfg: dict, out: Path, rng) -> dict:
    consts = cfg["constants"]
    ring = make_ring(SPEED_OF_LIGHT / consts["center_frequency"],
                     consts["power_coupling"],
                     consts["loss_db_per_cm"], consts["ring_radius"],
                     consts["effective_index"])
    lw = ring.linewidth_fwhm
    amplitude = float(cfg.get("dither_amplitude", 0.05)) * lw
    dither = DitherConfig(amplitude)
    probe = ring.resonance_wavelength
    planted = cfg.get("planted_detunings", [0.3, -0.2])
    if not (isinstance(planted, list) and len(planted) == 2):
        raise ConfigError("planted_detunings must be [demux, mux] in linewidths")
    unit = WsUnitConfig(ring, ring, detunings=(float(planted[0]) * lw,
                                               float(planted[1]) * lw))
    span = float(cfg.get("scan_span", 0.6)) * lw
    npts = int(cfg.get("scan_points", 13))
    grid = np.linspace(-span, span, npts)
    scan = align_scan(unit, grid, grid, dither, probe)
    write_csv(out / "scan_map.csv",
              ["demux_offset"] + [_fmt(float(g)) for g in grid],
              [[float(gd)] + [float(x) for x in row]
               for gd, row in zip(grid, scan.scan_map)])

    aligned = ws_unit(ring, ring)
    powers = np.linspace(0.0, 2.2 * float(cfg.get("power_2pi", 1.0)),
                         int(cfg.get("sweep_points", 24)))
    p2pi = float(cfg.get("power_2pi", 1.0))
    phi0 = float(cfg.get("phase_offset", 0.4))
    traces = simulate_phase_sweep(aligned, powers, p2pi, phi0, dither, probe,
                                  noise_sigma=float(cfg.get("noise_sigma", 0.0)),
                                  rng=rng)
    cal = fit_phase_curve(powers, traces, dither)
    summary = {
        "linewidth_fwhm": lw,
        "planted_detunings_linewidths": [float(p) for p in planted],
        "recovered_detuning_demux_linewidths": float(-scan.detuning_demux / lw),
        "recovered_detuning_mux_linewidths": float(-scan.detuning_mux / lw),
        "power_2pi_true": p2pi, "power_2pi_fit": cal.power_2pi,
        "phase_offset_true": phi0, "phase_offset_fit": cal.phase_offset,
        "fit_residual_rms": cal.residual_rms,
    }
    write_json(out / "calibration.json", summary)
    return summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfpsim",
        description="Reproduce frequency-bin processor experiments from "
                    "JSON configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMAND_FIELDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--expected-value", action="store_true",
                       help="replace Poisson sampling with expected counts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    try:
        if args.command == "beamsplitter":
            cmd_beamsplitter(cfg, out, rng)
        elif args.command == "gate":
            cmd_gate(cfg, out, rng)
        elif args.command == "spectrum":
            cmd_spectrum(cfg, out, rng)
        elif args.command == "qwalk":
            cmd_qwalk(cfg, out, rng)
        elif args.command == "tomography":
            cmd_tomography(cfg, out, rng, args.expected_value)
        elif args.command == "calibrate":
            cmd_calibrate(cfg, out, rng)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PHYSICS_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
