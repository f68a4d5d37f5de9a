"""Reproduction command line: each subcommand reruns one experiment from a
JSON config and returns plot-ready CSV tables plus a JSON summary, which
``main`` renders and only then writes: a config or physics failure writes nothing.

Exit codes: 0 success, 2 config error (``InvalidArgumentError``, or an
unwritable ``--out``), 3 numerical/physics failure (``PhysicsError``).
Outputs are byte-identical across reruns with the same config and seed.
"""

import argparse
import csv
import errno
import io
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import defaults
from .biphoton import (apply_joint, comb_envelope, comb_state, diagonal_weight, jsi,
                       jsi_fidelity, retrieval_reference_offsets, retrieve_phases,
                       walk_operators, ws_idler_phases)
from .calib import DitherConfig, align_scan, fit_phase_curve, simulate_phase_sweep
from .errors import InvalidArgumentError, NonFiniteResultError, PhysicsError
from .eom import BESSEL_MAX_ARGUMENT, check_window_margin
from .lattice import SPEED_OF_LIGHT, make_lattice
from .qfp import (beamsplitter_config, beamsplitter_spectra, fidelity, gauge_distance,
                  pair_block, reconstruct_submatrix, rt_closed_form,
                  simulate_output_spectrum, success_probability, synthesize_gate,
                  target_unitary)
from .rings import WsUnitConfig, make_ring, reduce_phase, ws_unit
from .tomo import (bell_fringe, carve_bell_state, fit_visibility,
                   mle_reconstruct, purity, simulate_counts, state_fidelity)

class Field(NamedTuple):
    """A config field.  Its value, or each entry of a list, lies in the
    interval, written as in mathematics ("(0, inf]"): NaN lies in none,
    and an infinity only in an interval closed at it."""

    kind: str                       # "real", "int", "reals" or "ints"
    default: object                 # None: the command works the value out
    interval: str = "(-inf, inf)"
    length: int | None = None       # entries of a list field; None for any


def _number(name: str, field: Field, value):
    """One value of a field, cast to its kind and checked against its interval."""
    integer = field.kind.startswith("int")
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or integer and isinstance(value, float) and not value.is_integer()):
        raise InvalidArgumentError(
            f"{name!r} = {value!r} is not {'an integer' if integer else 'a number'}")
    try:
        value = int(value) if integer else float(value)
    except OverflowError as exc:
        raise InvalidArgumentError(f"{name!r}: {exc}") from exc
    lo, hi = (float(x) for x in field.interval[1:-1].split(","))
    if not ((lo <= value if field.interval[0] == "[" else lo < value)
            and (value <= hi if field.interval[-1] == "]" else value < hi)):
        raise InvalidArgumentError(f"{name!r} = {value!r} outside {field.interval}")
    return value


def _resolve(fields: dict, raw: dict, what: str) -> dict:
    """Every one of ``fields``: its checked value from ``raw``, else its default."""
    unknown = set(raw) - set(fields)
    if unknown:
        raise InvalidArgumentError(f"unknown {what}: {sorted(unknown)}")
    out = {name: field.default for name, field in fields.items()}
    for name, value in raw.items():
        field = fields[name]
        if field.kind in ("real", "int"):
            out[name] = _number(name, field, value)
        elif isinstance(value, list) and field.length in (None, len(value)):
            out[name] = [_number(name, field, v) for v in value]
        else:
            size = f"{field.length} " if field.length else ""
            raise InvalidArgumentError(f"{name!r} must be a list of {size}numbers")
    return out


def load_config(path: str, command: str) -> dict:
    """Parse a run config; resolve its fields and constants by the tables below."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise InvalidArgumentError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidArgumentError("config root must be a JSON object")
    constants = raw.pop("constants", {})
    if not isinstance(constants, dict):
        raise InvalidArgumentError("'constants' must be an object")
    cfg = _resolve(COMMANDS[command].fields, raw, "config fields")
    cfg["constants"] = _resolve(CONSTANTS, constants, "constants")
    return cfg


def _render(name: str, payload) -> str:
    """The text of one output file: a (header, rows) table as CSV for a
    ``.csv`` name, where csv writes each float as its shortest round-trip
    repr, so reruns are byte-identical; else a summary as strict JSON,
    where a NaN or infinity raises NonFiniteResultError."""
    if name.endswith(".csv"):
        header, rows = payload
        text = io.StringIO()
        csv.writer(text).writerows([header, *rows])
        return text.getvalue()
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteResultError(f"{name}: {exc}") from exc


def _lattice_from(constants: dict):
    return make_lattice(constants["center_frequency"], constants["bin_spacing"],
                        constants["half_width"])


def cmd_beamsplitter(cfg: dict, rng) -> dict:
    # linspace's step products overflow, or give NaN from an infinite step, on
    # some finite ends; only a sweep with a point that is not finite is refused
    with np.errstate(over="ignore", invalid="ignore"):
        alphas = np.linspace(cfg["alpha_min"], cfg["alpha_max"], cfg["alpha_points"])
    if not np.all(np.isfinite(alphas)):
        raise InvalidArgumentError("the alpha sweep from alpha_min to alpha_max overflows")
    lat = _lattice_from(cfg["constants"])
    bins = tuple(cfg["computational_bins"])
    delta = cfg["constants"]["depth"]
    # M is linear in the WS diagonal, whose entries are 1 or e^{i alpha}, so the
    # block is affine in e^{i alpha} and two settings give it at every alpha
    v0, v_pi = (pair_block(beamsplitter_config(a, delta, lat, bins)) for a in (0.0, np.pi))
    blocks = (v0 + v_pi) / 2 + np.exp(1j * alphas)[:, None, None] * ((v0 - v_pi) / 2)
    r_mat, t_mat = np.abs(blocks[:, 0, 0]) ** 2, np.abs(blocks[:, 0, 1]) ** 2
    thetas = 2 * np.arcsin(np.sqrt(t_mat / (r_mat + t_mat)))
    p = [success_probability(v) for v in blocks]
    f = [fidelity(v, target_unitary(theta, 0.0, 0.0)) for v, theta in zip(blocks, thetas)]
    columns = (alphas, *rt_closed_form(alphas, delta), r_mat, t_mat)
    r_pi, t_pi = rt_closed_form(np.pi, delta)
    return {
        "beamsplitter.csv": (["alpha", "R_closed_form", "T_closed_form",
                              "R_matrix", "T_matrix", "success_probability", "fidelity"],
                             list(zip(*(c.tolist() for c in columns), p, f))),
        "beamsplitter_summary.json": {
            "depth": delta, "R_at_pi": r_pi, "T_at_pi": t_pi,
            "min_success_probability": min(p), "alpha_points": len(alphas)},
    }


def cmd_gate(cfg: dict, rng) -> dict:
    lat = _lattice_from(cfg["constants"])
    bins = tuple(cfg["computational_bins"])
    theta, lam, mu = cfg["theta"], cfg["lam"], cfg["mu"]
    delta = cfg["constants"]["depth"]
    config = synthesize_gate(theta, lam, mu, delta, lat, bins)
    v = pair_block(config)
    target = target_unitary(theta, lam, mu)
    spectra = beamsplitter_spectra(config)
    v_rec = reconstruct_submatrix(spectra, lat, bins)
    return {"gate.json": {
        "theta": theta, "lam": lam, "mu": mu, "depth": delta,
        "matrix_magnitude_squared": (np.abs(v) ** 2).tolist(),
        "matrix_phase": np.angle(v).tolist(),
        "success_probability": success_probability(v),
        "fidelity": fidelity(v, target),
        "reconstruction_gauge_error": gauge_distance(v_rec, v),
    }}


def cmd_spectrum(cfg: dict, rng) -> dict:
    lat = _lattice_from(cfg["constants"])
    bins = tuple(cfg["computational_bins"])
    input_bin = bins[0] if cfg["input_bin"] is None else cfg["input_bin"]
    config = beamsplitter_config(cfg["alpha"], cfg["constants"]["depth"], lat, bins)
    powers = simulate_output_spectrum(config, {input_bin: 1.0})
    return {
        "spectrum.csv": (["bin", "power"], list(zip(lat.bins.tolist(), powers.tolist()))),
        "spectrum_summary.json": {"alpha": cfg["alpha"], "input_bin": input_bin,
                                  "total_power": float(np.sum(powers))},
    }


def cmd_qwalk(cfg: dict, rng) -> dict:
    consts = cfg["constants"]
    lat = _lattice_from(consts)
    num_pairs, depth = cfg["num_pairs"], cfg["walk_depth"]
    planted = cfg["planted_phases"]
    if planted is None:
        planted = [0.0] + [float(p) for p in rng.uniform(-0.1, 0.1, num_pairs - 1)]
    if len(planted) != num_pairs:
        raise InvalidArgumentError("planted_phases must have one entry per pair")
    pairs = [(l, -l) for l in range(1, num_pairs + 1)]
    weights = comb_envelope(num_pairs, consts["pump_filter_fsr"], consts["bin_spacing"],
                            consts["pump_filter_extinction_db"])
    # every pair bin keeps the walk's margin, so no amplitude walks off the window
    check_window_margin(lat, [b for pair in pairs for b in pair], depth)
    initial = comb_state(lat, lat, pairs, weights=weights)
    sig, idl = walk_operators(depth, lat)
    anti_state = comb_state(lat, lat, pairs, weights=weights, phases=ws_idler_phases(pairs))
    corr_out = apply_joint(initial, sig, idl)
    anti_out = apply_joint(anti_state, sig, idl)
    outputs = {f"jsi_{name}.csv": (["signal_bin"] + lat.bins.tolist(),
                                   [[bs] + row for bs, row in
                                    zip(lat.bins.tolist(), jsi(state, "max").tolist())])
               for name, state in (("initial", initial), ("correlated", corr_out),
                                   ("anticorrelated", anti_out))}

    reference = retrieval_reference_offsets(num_pairs)
    # reduced first: a phase of 1e17 (ulp 16) would round the offsets away
    reduced = np.array([reduce_phase(p) for p in planted])
    measurements = []
    for offsets in (np.zeros(num_pairs), reference):
        state = comb_state(lat, lat, pairs, weights=weights, phases=reduced + offsets)
        measurements.append((offsets, jsi(apply_joint(state, sig, idl), "integral")))
    recovered = retrieve_phases(measurements, initial, pairs, sig, idl)
    rec_state = comb_state(lat, lat, pairs, weights=weights, phases=recovered)
    fid = jsi_fidelity(jsi(apply_joint(rec_state, sig, idl), "integral"),
                       measurements[0][1])
    outputs["qwalk_summary.json"] = {
        "walk_depth": depth, "num_pairs": num_pairs,
        "diagonal_weight_correlated": diagonal_weight(corr_out, pairs),
        "diagonal_weight_anticorrelated": diagonal_weight(anti_out, pairs),
        "planted_phases": planted,
        "recovered_phases": [float(p) for p in recovered],
        "reconstruction_jsi_fidelity": float(fid),
    }
    return outputs


def cmd_tomography(cfg: dict, rng, expected_value: bool) -> dict:
    suppression, shots, bell_phase = cfg["suppression_db"], cfg["shots"], cfg["bell_phase"]
    car = cfg["constants"]["car"]
    rho_true = carve_bell_state(suppression, bell_phase)
    # accidental floor referenced to the peak coincidence rate, as a
    # coincidence-to-accidental ratio is measured
    exact = simulate_counts(rho_true, shots)
    peak_rate = max(r.counts for r in exact) / shots
    accidental = peak_rate / car
    records = simulate_counts(rho_true, shots, accidental_fraction=accidental,
                              rng=None if expected_value else rng)
    rho_hat = mle_reconstruct(records)
    bell = carve_bell_state(np.inf, bell_phase)

    phis = np.linspace(0.0, 2 * np.pi, cfg["fringe_points"])
    fringe = bell_fringe(rho_true, phis)
    fringe_acc = float(fringe.max()) / car
    fringe_counts = (fringe + fringe_acc) * cfg["fringe_shots"]
    if not expected_value:
        fringe_counts = rng.poisson(fringe_counts).astype(float)
    fit = fit_visibility(phis, fringe_counts)

    outputs = {f"rho_{part}.csv": (["r0", "r1", "r2", "r3"], rows.tolist())
               for part, rows in (("real", rho_hat.real), ("imag", rho_hat.imag))}
    outputs["fringe.csv"] = (["phase", "counts"], np.column_stack([phis, fringe_counts]).tolist())
    outputs["tomography_summary.json"] = {
        "suppression_db": suppression, "shots": shots,
        "expected_value": bool(expected_value),
        "fidelity_to_true": state_fidelity(rho_hat, rho_true),
        "fidelity_to_bell": state_fidelity(rho_hat, bell),
        "purity": purity(rho_hat),
        "visibility": fit.visibility,
        "visibility_sigma": fit.visibility_sigma,
        "violates_classical_bound": bool(fit.violates_classical_bound),
    }
    return outputs


def cmd_calibrate(cfg: dict, rng) -> dict:
    p2pi, phi0 = cfg["power_2pi"], cfg["phase_offset"]
    # the heater sweep runs to 2.2 power_2pi, and the planted phase of its
    # last power is 2 pi times that over power_2pi
    if not np.isfinite(2.0 * np.pi * (2.2 * p2pi)):
        raise InvalidArgumentError(f"'power_2pi' = {p2pi!r} overflows the power sweep")
    consts = cfg["constants"]
    ring = make_ring(SPEED_OF_LIGHT / consts["center_frequency"], consts["power_coupling"],
                     consts["loss_db_per_cm"], consts["ring_radius"],
                     consts["effective_index"])
    lw = ring.linewidth_fwhm
    dither = DitherConfig(cfg["dither_amplitude"] * lw)
    probe = ring.resonance_wavelength
    planted = cfg["planted_detunings"]
    unit = WsUnitConfig(ring, ring, detunings=(planted[0] * lw, planted[1] * lw))
    span = cfg["scan_span"] * lw
    grid = np.linspace(-span, span, cfg["scan_points"])
    scan = align_scan(unit, grid, grid, dither, probe)

    aligned = ws_unit(ring, ring)
    powers = np.linspace(0.0, 2.2 * p2pi, cfg["sweep_points"])
    traces = simulate_phase_sweep(aligned, powers, p2pi, phi0, dither, probe,
                                  noise_sigma=cfg["noise_sigma"], rng=rng)
    cal = fit_phase_curve(powers, traces, dither)
    return {
        "scan_map.csv": (["demux_offset"] + grid.tolist(),
                         np.column_stack([grid, scan.scan_map]).tolist()),
        "calibration.json": {
            "linewidth_fwhm": lw,
            "planted_detunings_linewidths": planted,
            "recovered_detuning_demux_linewidths": float(-scan.detuning_demux / lw),
            "recovered_detuning_mux_linewidths": float(-scan.detuning_mux / lw),
            "power_2pi_true": p2pi, "power_2pi_fit": cal.power_2pi,
            "phase_offset_true": phi0, "phase_offset_fit": cal.phase_offset,
            "fit_residual_rms": cal.residual_rms,
        },
    }


class Command(NamedTuple):
    run: Callable
    help: str
    fields: dict
    flags: dict = {}  # on/off options of the command: argument name -> help


# Size bounds keep a run below 800 MB: n x n operators (n = 2 half_width + 1) and
# biphoton.LIFTED_MAX_SIZE on qwalk's retrieval design, which grows with walk_depth.
COMMANDS = {
    "beamsplitter": Command(cmd_beamsplitter, "R/T sweep against the step phase alpha", {
        "alpha_min": Field("real", np.pi), "alpha_max": Field("real", 2 * np.pi),
        "alpha_points": Field("int", 32, "[1, 10000]"),
        "computational_bins": Field("ints", (0, 1), length=2)}),
    "gate": Command(cmd_gate, "synthesize a gate and reconstruct it from probe spectra", {
        "theta": Field("real", np.pi / 2), "lam": Field("real", 0.0), "mu": Field("real", 0.0),
        "computational_bins": Field("ints", (0, 1), length=2)}),
    "spectrum": Command(cmd_spectrum, "output spectrum for light in one input bin", {
        "alpha": Field("real", np.pi),
        "input_bin": Field("int", None),  # the lower computational bin
        "computational_bins": Field("ints", (0, 1), length=2)}),
    "qwalk": Command(cmd_qwalk, "biphoton walk and retrieval of planted pair phases", {
        "num_pairs": Field("int", defaults.NUM_COMB_PAIRS, "[2, 256]"),
        "walk_depth": Field("real", defaults.WALK_DEPTH, f"[0, {BESSEL_MAX_ARGUMENT}]"),
        "planted_phases": Field("reals", None)}),  # seeded draw in [-0.1, 0.1]
    "tomography": Command(cmd_tomography, "MLE tomography and Bell fringe of a carved state", {
        "suppression_db": Field("real", defaults.GUARD_SUPPRESSION_DB, "[0, inf)"),
        "shots": Field("real", 1e4, "[1, 1e12]"),
        "fringe_points": Field("int", 13, "[5, 100000]"),
        "fringe_shots": Field("real", 2e5, "[1, 1e12]"),
        "bell_phase": Field("real", 0.0)},
        {"expected_value": "replace Poisson sampling with expected counts"}),
    "calibrate": Command(cmd_calibrate, "dither alignment scan and phase-power curve", {
        "dither_amplitude": Field("real", 0.05, "(0, inf)"),
        "scan_points": Field("int", 13, "[3, 201]"), "scan_span": Field("real", 0.6),
        "planted_detunings": Field("reals", (0.3, -0.2), length=2),
        "power_2pi": Field("real", 1.0, "(0, inf)"), "phase_offset": Field("real", 0.4),
        "sweep_points": Field("int", 24, "[8, 1000]"),
        "noise_sigma": Field("real", 0.0, "[0, inf)")}),
}

CONSTANTS = {
    "center_frequency": Field("real", defaults.CENTER_FREQUENCY, "[1e12, 1e16]"),  # optical
    "bin_spacing": Field("real", defaults.BIN_SPACING, "(0, inf)"),
    "half_width": Field("int", defaults.DEFAULT_HALF_WIDTH, "[1, 256]"),
    "depth": Field("real", defaults.WORKING_DEPTH, f"[0, {BESSEL_MAX_ARGUMENT}]"),
    "power_coupling": Field("real", defaults.POWER_COUPLING, "(0, 1)"),
    "loss_db_per_cm": Field("real", defaults.LOSS_DB_PER_CM, "[0, inf)"),
    "ring_radius": Field("real", defaults.RING_RADIUS, "(0, inf)"),
    "effective_index": Field("real", defaults.EFFECTIVE_INDEX, "(0, inf)"),
    "pump_filter_fsr": Field("real", defaults.PUMP_FILTER_FSR, "(0, inf)"),
    "pump_filter_extinction_db": Field("real", defaults.PUMP_FILTER_EXTINCTION_DB, "(0, inf)"),
    "car": Field("real", defaults.CAR, "[1, inf]"),  # Infinity: no accidental coincidences
}


def _describe(fields: dict) -> str:
    return "\n".join(f"  {name:27s}{f.kind}"
                     f"{'' if f.length is None else f'[{f.length}]'} in {f.interval}, "
                     f"default {'derived' if f.default is None else json.dumps(f.default)}"
                     for name, f in fields.items())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfpsim",
        description="Reproduce frequency-bin processor experiments from JSON configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(
            name, help=command.help,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            epilog=f"config fields:\n{_describe(command.fields)}\n"
                   f"under \"constants\":\n{_describe(CONSTANTS)}")
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        for flag, text in command.flags.items():
            p.add_argument("--" + flag.replace("_", "-"), action="store_true", help=text)
    return parser


def _write_all(out: Path, texts: dict) -> None:
    """Write every file into ``out`` or leave it as it was: each file goes to a
    temporary name there first, and the temporaries replace their targets only
    once all are written and no target is a directory."""
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    temps = []
    try:
        for name, text in texts.items():
            target = out / name
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
            temps.append(out / f".{name}.{os.getpid()}.tmp")
            temps[-1].write_bytes(text.encode())
        for temp, name in zip(temps, texts):
            os.replace(temp, out / name)
    except OSError:
        for temp in temps:
            temp.unlink(missing_ok=True)
        if made:
            out.rmdir()
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        cfg = load_config(args.config, args.command)
        flags = {f: getattr(args, f) for f in command.flags}
        outputs = command.run(cfg, np.random.default_rng(args.seed), **flags)
        # every file is rendered, and so checked, before the first is written
        texts = {name: _render(name, payload) for name, payload in outputs.items()}
        out = Path(args.out)
        try:
            _write_all(out, texts)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot write --out {out}: {exc}") from exc
    except InvalidArgumentError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PhysicsError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
