#!/usr/bin/env python3
"""Compare the qfpsim outputs of two source trees, case by case.

Usage: python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the ``qfpsim`` package, such as the
``src`` of a checkout.  Every case is a command, its config and its
flags, and runs once on each tree, in a fresh interpreter whose
PYTHONPATH starts with that tree: the six commands on the config ``{}``
at ``--seed 0`` and at ``--seed 3``, ``tomography --expected-value``,
``tomography`` at ``--seed 190`` (the first seed from 0 up whose first
maximum-likelihood run does not certify), ``tomography`` with
``car`` Infinity (no accidental coincidences), with 1000 shots, with
1e5 shots at 20 dB suppression (a purer state, ten times the default
shots), with 1e6 shots, with 1e8 shots (where a second
maximum-likelihood run certifies), with 1e10 shots (where a continued
run takes no step and so ends the fit) and with one shot at ``--seed 3``
(every count 0, so the fit starts from I/4), two failing runs,
``gate`` with a mistyped ``theta`` (exit 2) and ``calibrate`` with a
phase-curve fit that fails (exit 3), and five runs with a noisy, long
or many-pair fit: ``calibrate`` with ``noise_sigma`` 0.01, on the
default sweep and on 1000 points, where the phase-curve grid search is
largest, ``calibrate`` with ``noise_sigma`` 1.0, where the noise
dominates the phase curve and the fit's stopping rules decide where it
ends, ``qwalk`` with 16 pairs on a 49-bin window, and ``qwalk`` with
32 pairs on an 81-bin window and planted phases drawn over +-pi, where
the lifted design of the phase retrieval is large; and ``gate`` and
``spectrum`` at depth 2 on a 129-bin window, where the composed
processor is large, and ``beamsplitter`` with 8 points on that window;
three runs with huge phases that are reduced before use, ``gate`` with
``mu`` 1e17, ``calibrate`` with ``phase_offset`` 1e17 and ``qwalk``
with a planted phase of 1e17; and
``beamsplitter`` with 200 points on a 513-bin window, the widest
operator, whose sweep composes two settings as every sweep does;
``beamsplitter`` from alpha -20 to 20 on 101 points, step phases far
outside [pi, 2 pi] at which e^{i alpha} wraps round the circle; and
``gate`` and ``spectrum`` at depth 1 on the 513-bin window, where the
modulator matrix stores its Bessel values below sqrt(tiny) as 0; and ``spectrum``
at the two ends of the Bessel rows' range, at the subnormal depth 5e-324
(x / 2 underflows to 0) and at depth 50 on a 161-bin window, whose
79 bins beside the pair leave room for that depth's truncation order of
72; and two gates whose intrinsic phases are read off near-zero entries,
``gate`` at theta 0 (alpha = 2 pi, where V_01 is at rounding level) and
at theta 1e-7 with lam 2.5 and mu -3 (near the identity, on the root
finder's branch), where a signed zero could flip a phase: 42 cases.  For
each output file the report says "identical", or gives the largest
absolute and relative difference of the numbers in it (CSV cells and
JSON values); a relative difference is taken against at least eps times
the largest magnitude in the file.

Exits 1 when, for some case, the exit codes, the stdout or stderr text,
the set of output files, or anything in a file other than its numbers
(CSV shape and text cells, JSON keys and strings) differ; else 0.
Standard library only.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# 32 pair phases over +-pi, pair 0 the reference: the draw of the tests'
# 32-pair qwalk case, [0] + numpy.random.default_rng(4).uniform(-pi, pi, 31)
_FAR_PHASES = [
    0.0, 2.7838036127885077, 0.07117311340949772, 2.9923274543394056,
    -2.6336849359581276, 0.6745365862312105, -0.7760576782802868, 1.8969012279530073,
    -2.045002043499493, 2.3350532944055393, 0.2760919636541015, 2.527191879197564,
    -0.1435486433343276, -0.43670476656484203, 1.815505770232301, 3.0420230155941415,
    -0.8185369855107263, 2.9463921145413323, 2.6956522960000155, -2.025117209535365,
    0.6839348796204034, 1.287203159291475, 2.782217570669447, 1.0408562483045438,
    -2.3034424028955938, -0.013398271980747278, -0.04008776554430504, 0.0014211895926803386,
    2.8813574822144474, -0.9428711245939736, -1.73559707198218, 0.1387767277746108]
COMMANDS = ("beamsplitter", "gate", "spectrum", "qwalk", "tomography", "calibrate")
# (command, config, flags)
CASES = ([(command, "{}", ("--seed", seed)) for seed in ("0", "3") for command in COMMANDS]
         + [("tomography", "{}", ("--seed", "0", "--expected-value")),
            ("tomography", "{}", ("--seed", "190")),
            ("tomography", '{"constants": {"car": Infinity}}', ("--seed", "0")),
            ("tomography", '{"shots": 1000}', ("--seed", "0")),
            ("tomography", '{"shots": 100000, "suppression_db": 20}', ("--seed", "0")),
            ("tomography", '{"shots": 1000000}', ("--seed", "0")),
            ("tomography", '{"shots": 100000000}', ("--seed", "0")),
            ("tomography", '{"shots": 10000000000}', ("--seed", "0")),
            ("tomography", '{"shots": 1}', ("--seed", "3")),
            ("gate", '{"theta": "x"}', ("--seed", "0")),
            ("calibrate", '{"power_2pi": 1e200}', ("--seed", "0")),
            ("calibrate", '{"noise_sigma": 0.01}', ("--seed", "0")),
            ("calibrate", '{"sweep_points": 1000, "noise_sigma": 0.01}', ("--seed", "0")),
            ("calibrate", '{"noise_sigma": 1.0}', ("--seed", "0")),
            ("qwalk", '{"num_pairs": 16, "constants": {"half_width": 24}}', ("--seed", "0")),
            ("qwalk", json.dumps({"num_pairs": 32, "constants": {"half_width": 40},
                                  "planted_phases": _FAR_PHASES}), ("--seed", "0")),
            ("gate", '{"theta": 0.9, "lam": 0.4, "mu": -1.1, '
                     '"constants": {"half_width": 64, "depth": 2.0}}', ("--seed", "0")),
            ("spectrum", '{"alpha": 4.0, "constants": {"half_width": 64, "depth": 2.0}}',
             ("--seed", "0")),
            ("beamsplitter", '{"alpha_points": 8, "constants": {"half_width": 64, "depth": 2.0}}',
             ("--seed", "0")),
            ("gate", '{"mu": 1e17}', ("--seed", "0")),
            ("calibrate", '{"phase_offset": 1e17}', ("--seed", "0")),
            ("qwalk", '{"num_pairs": 2, "planted_phases": [0, 1e17]}', ("--seed", "0")),
            ("beamsplitter", '{"alpha_points": 200, "constants": {"half_width": 256}}',
             ("--seed", "0")),
            ("beamsplitter", '{"alpha_min": -20.0, "alpha_max": 20.0, "alpha_points": 101}',
             ("--seed", "0")),
            ("gate", '{"constants": {"half_width": 256, "depth": 1.0}}', ("--seed", "0")),
            ("spectrum", '{"constants": {"half_width": 256, "depth": 1.0}}', ("--seed", "0")),
            ("spectrum", '{"constants": {"depth": 5e-324}}', ("--seed", "0")),
            ("spectrum", '{"constants": {"half_width": 80, "depth": 50.0}}', ("--seed", "0")),
            ("gate", '{"theta": 0.0}', ("--seed", "0")),
            ("gate", '{"theta": 1e-7, "lam": 2.5, "mu": -3.0}', ("--seed", "0"))])


def run_case(src: Path, case: tuple, work: Path):
    """(exit code, stdout, stderr, {file name: bytes}) of one case on one tree."""
    command, text, flags = case
    config = work / "config.json"
    config.write_text(text)
    out = work / "out"
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), path)))}
    done = subprocess.run([sys.executable, "-m", "qfpsim.cli", command, "--config", str(config),
                           "--out", str(out), *flags],
                          env=env, capture_output=True, text=True, timeout=900)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return done.returncode, done.stdout, done.stderr, files


def _cell(text: str):
    """A CSV cell as a real or complex number, or as its text."""
    for kind in (float, complex):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _leaves(text: str, name: str) -> list:
    """The values of a file in a fixed order: JSON leaves by path, CSV cells
    by row and column; numbers parsed, everything else kept as text."""
    if name.endswith(".json"):
        out = []

        def walk(value, path):
            if isinstance(value, dict):
                for key in sorted(value):
                    walk(value[key], f"{path}/{key}")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    walk(item, f"{path}/{i}")
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                out.append((path, value))
            else:
                out.append((path, json.dumps(value)))

        walk(json.loads(text), "")
        return out
    return [((r, c), _cell(cell)) for r, row in enumerate(csv.reader(io.StringIO(text)))
            for c, cell in enumerate(row)]


def compare_file(name: str, old: bytes, new: bytes):
    """(report line, ok): 'identical', the largest numeric differences and
    where the largest relative one is, or why the files cannot be compared
    number by number."""
    if old == new:
        return "identical", True
    try:
        a, b = _leaves(old.decode(), name), _leaves(new.decode(), name)
    except ValueError as exc:
        return f"differs and cannot be parsed ({exc})", False
    if [key for key, _ in a] != [key for key, _ in b]:
        return "differs in shape or keys", False
    # a relative difference is taken against at least eps times the file's
    # largest finite magnitude, so numbers at subnormal scale do not count as
    # large drifts
    floor = sys.float_info.epsilon * max(
        (abs(v) for _, v in a + b if not isinstance(v, str) and abs(v) < math.inf), default=0.0)
    max_abs = max_rel = 0.0
    where = None
    for (key, x), (_, y) in zip(a, b):
        if isinstance(x, str) or isinstance(y, str):
            if x != y:
                return f"differs in text at {key}: {x!r} -> {y!r}", False
            continue
        if x == y or (x != x and y != y):  # equal, or both NaN
            continue
        diff = abs(x - y)
        if not math.isfinite(diff):  # NaN or infinity against a number
            return f"differs at {key}: {x!r} -> {y!r}", False
        max_abs = max(max_abs, diff)
        rel = diff / max(abs(x), abs(y), floor)
        if rel > max_rel:
            max_rel, where = rel, key
    return f"max abs {max_abs:.3g}, max rel {max_rel:.3g} (at {where})", True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    srcs = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in srcs:
        if not (src / "qfpsim" / "cli.py").is_file():
            parser.error(f"{src} holds no qfpsim package")
    ok = True
    with tempfile.TemporaryDirectory(prefix="qfpsim-compare-") as tmp:
        for n, case in enumerate(CASES):
            runs = []
            for side, src in enumerate(srcs):
                work = Path(tmp) / f"{n}-{side}"
                work.mkdir()
                runs.append(run_case(src, case, work))
            (code_a, out_a, err_a, files_a), (code_b, out_b, err_b, files_b) = runs
            command, text, flags = case
            print(f"{command} {text} {' '.join(flags)}: exit {code_a} -> {code_b}")
            if code_a != code_b:
                ok = False
                print("  exit codes differ")
            for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
                if a != b:
                    ok = False
                    print(f"  {stream} differs: {a.strip()!r} -> {b.strip()!r}")
            if files_a.keys() != files_b.keys():
                ok = False
                print(f"  files differ: {sorted(files_a)} -> {sorted(files_b)}")
            for name in sorted(files_a.keys() & files_b.keys()):
                line, same_shape = compare_file(name, files_a[name], files_b[name])
                ok = ok and same_shape
                print(f"  {name}: {line}")
    print("same exit codes, streams, files and shapes" if ok else "DIFFERENCES FOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
