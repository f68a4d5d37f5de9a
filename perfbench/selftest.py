"""The benchmark's own tests.

    python3 perfbench/selftest.py

Each output check accepts a correct qfpsim output and rejects a
deliberately wrong copy of it; the independent closed form reproduces the
acceptance anchors; the metric lists agree with BENCHMARK.json.  Exits 0
when every test passes.  The file is not named test_*.py, so the
repository's own pytest run does not collect it.
"""

import copy
import json
import math
import shutil
import sys
import traceback
from pathlib import Path

import machine

machine.pin_blas_threads()

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckError  # noqa: E402
from workloads import OpFailure  # noqa: E402

WORK = ROOT / ".perfbench-runs" / "selftest"


def rejects(fn, *args, error=CheckError):
    try:
        fn(*args)
    except error:
        return
    raise AssertionError(f"{fn.__name__} accepted a wrong output")


# --- closed form ------------------------------------------------------------

def test_closed_form_anchors():
    r, t = oracle.rt_closed_form(math.pi, 0.8169)
    assert abs(r - 0.4978) <= 5e-4 and abs(t - 0.4781) <= 5e-4, (r, t)
    a, b, jbar = oracle.rt_coefficients(0.8169)
    assert abs(jbar - 0.239) <= 1e-3, jbar


def test_gate_rt_inverts_the_splitting():
    for delta in (0.8169, 1.7, 3.9):
        for theta in np.linspace(0.0, oracle.max_theta(delta), 7):
            r, t = oracle.gate_rt(theta, delta)
            assert abs(t / (r + t) - math.sin(theta / 2) ** 2) <= 1e-12


# --- processor op -----------------------------------------------------------

def processor_op(cls=workloads.ProcessorNarrow, seed=3):
    wl = cls(WORK, env=None)
    wl.setup()
    inp = wl.round_inputs(workloads.input_rng(wl.name, seed))[0]
    return wl, inp, wl.run(inp)


def test_processor_checks_accept_and_reject():
    for cls in (workloads.ProcessorNarrow, workloads.ProcessorWide):
        wl, inp, out = processor_op(cls)
        wl.check(inp, out)
        cases = {
            "magnitude": lambda o: o["v"].__setitem__((0, 0), o["v"][0, 0] * 1.01),
            "phase": lambda o: o["v"].__setitem__((0, 1), o["v"][0, 1] * np.exp(0.2j)),
            "reported fidelity": lambda o: o.__setitem__("fidelity", o["fidelity"] - 1e-6),
            "success": lambda o: o.__setitem__("success", o["success"] + 1e-4),
            "reconstruction": lambda o: o["v_rec"].__setitem__((1, 1), o["v_rec"][1, 1] + 1e-5),
            "unitarity": lambda o: o["entries"].__setitem__(
                (o["entries"].shape[0] // 2,) * 2,
                o["entries"][(o["entries"].shape[0] // 2,) * 2] + 1e-6),
            "power": lambda o: o["spectra"].__setitem__("bin0", o["spectra"]["bin0"] * 1.001),
        }
        for name, corrupt in cases.items():
            bad = copy.deepcopy(out)
            corrupt(bad)
            rejects(wl.check, inp, bad)


# --- solvers op -------------------------------------------------------------

def test_solvers_checks_accept_and_reject():
    wl = workloads.Solvers(WORK, env=None)
    wl.setup()
    inp = wl.round_inputs(workloads.input_rng(wl.name, 3))[0]
    out = wl.run(inp)
    wl.check(inp, out)
    step = out["grid"][1] - out["grid"][0]
    sigma = out["fringe"].visibility_sigma

    def replace_fit(o, **kw):
        o["fringe"] = type(o["fringe"])(**{**vars(o["fringe"]), **kw})

    def replace_cal(o, **kw):
        o["calibration"] = type(o["calibration"])(**{**vars(o["calibration"]), **kw})

    cases = {
        "detuning": lambda o: o.__setitem__("recovered_detunings", (
            o["recovered_detunings"][0] + step, o["recovered_detunings"][1])),
        "scan map": lambda o: o["scan_map"].__setitem__((6, 6), o["scan_map"][6, 6] * 1.001),
        "P_2pi": lambda o: replace_cal(o, power_2pi=o["calibration"].power_2pi * 1.02),
        "phi_0": lambda o: replace_cal(o, phase_offset=o["calibration"].phase_offset + 0.05),
        "phases": lambda o: o["phases"].__setitem__(3, o["phases"][3] + 0.02),
        "hermitian": lambda o: o["rho"].__setitem__((0, 1), o["rho"][0, 1] + 1e-6),
        "trace": lambda o: o.__setitem__("rho", o["rho"] * 1.01),
        "positive": lambda o: o.__setitem__("rho", o["rho"] + 0.3 * np.diag([1, -1, 1, -1])),
        "fidelity": lambda o: o.__setitem__("rho", np.eye(4, dtype=complex) / 4),
        "fringe": lambda o: o["fringe_rates"].__setitem__(2, o["fringe_rates"][2] * 1.001),
        "visibility": lambda o: replace_fit(o, visibility=o["fringe"].visibility + 10 * sigma),
        "sigma inf": lambda o: replace_fit(o, visibility_sigma=math.inf),
        "sigma size": lambda o: replace_fit(o, visibility_sigma=10 * sigma),
    }
    for name, corrupt in cases.items():
        bad = copy.deepcopy(out)
        corrupt(bad)
        rejects(wl.check, inp, bad)


# --- command-line outputs ----------------------------------------------------

def cli_outputs():
    """One run of each command in-process; returns (workload, jobs)."""
    from qfpsim.cli import main

    wl = workloads.CliCold(WORK, env=None)
    wl.setup()
    jobs = {}
    for inp in wl.round_inputs(workloads.input_rng(wl.name, 3)):
        job = wl.prepare(inp)
        argv = job["argv"][job["argv"].index("qfpsim.cli") + 1:]
        assert main(argv) == 0
        jobs[inp[0]] = job
    return wl, jobs


def fresh(job, tag):
    """A copy of the op's output directory that check() may delete."""
    new = dict(job, out_dir=job["out_dir"].with_name(job["out_dir"].name + tag))
    shutil.rmtree(new["out_dir"], ignore_errors=True)
    shutil.copytree(job["out_dir"], new["out_dir"])
    return new


def edit(path, fn):
    path.write_text(fn(path.read_text()))


def test_cli_checks_accept_and_reject():
    wl, jobs = cli_outputs()
    ok = {"code": 0, "err": ""}
    for cmd in ("spectrum", "beamsplitter", "gate"):
        wl.check(fresh(jobs[cmd], "-ok"), ok)
    # today's tomography summary holds Infinity: a failed op
    rejects(wl.check, fresh(jobs["tomography"], "-inf"), ok, error=OpFailure)
    # with a finite sigma the same output passes every value check
    tomo = fresh(jobs["tomography"], "-finite")
    edit(tomo["out_dir"] / "tomography_summary.json",
         lambda s: s.replace("Infinity", "0.001"))
    wl.check(tomo, ok)

    rejects(wl.check, fresh(jobs["gate"], "-exit"), {"code": 3, "err": "x"},
            error=OpFailure)
    nan = fresh(jobs["spectrum"], "-nan")
    edit(nan["out_dir"] / "spectrum_summary.json",
         lambda s: s.replace(s.split('"total_power": ')[1].split("\n")[0], "NaN"))
    rejects(wl.check, nan, ok, error=OpFailure)
    inf_csv = fresh(jobs["beamsplitter"], "-infcsv")
    edit(inf_csv["out_dir"] / "beamsplitter.csv",
         lambda s: s.replace(s.splitlines()[1].split(",")[3], "inf", 1))
    rejects(wl.check, inf_csv, ok, error=OpFailure)
    # exit 0 but an output missing, unparsable or incomplete: a failed op
    for cmd, name in (("spectrum", "spectrum.csv"),
                      ("beamsplitter", "beamsplitter_summary.json"),
                      ("gate", "gate.json")):
        gone = fresh(jobs[cmd], "-gone")
        (gone["out_dir"] / name).unlink()
        rejects(wl.check, gone, ok, error=OpFailure)
    cell = fresh(jobs["beamsplitter"], "-cell")
    edit(cell["out_dir"] / "beamsplitter.csv",
         lambda s: s.replace(s.splitlines()[1].split(",")[3], "0.4x", 1))
    rejects(wl.check, cell, ok, error=OpFailure)
    nokey = fresh(jobs["gate"], "-nokey")
    path = nokey["out_dir"] / "gate.json"
    data = json.loads(path.read_text())
    del data["fidelity"]
    path.write_text(json.dumps(data))
    rejects(wl.check, nokey, ok, error=OpFailure)

    def scale_cell(job, name, row, col, factor, tag):
        bad = fresh(job, tag)
        path = bad["out_dir"] / name
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[col] = repr(float(cells[col]) * factor)
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return bad

    half = wl.half_width
    rejects(wl.check, scale_cell(jobs["spectrum"], "spectrum.csv",
                                 1 + half, 1, 1.001, "-p"), ok)
    for col in (1, 2, 3, 4, 5):
        rejects(wl.check, scale_cell(jobs["beamsplitter"], "beamsplitter.csv",
                                     2, col, 1.001, f"-c{col}"), ok)
    for key, change in (("fidelity", lambda v: v - 1e-6),
                        ("success_probability", lambda v: v + 1e-4),
                        ("reconstruction_gauge_error", lambda v: 1e-5),
                        ("matrix_phase", lambda v: [[v[0][0], v[0][1] + 0.2], v[1]])):
        bad = fresh(jobs["gate"], f"-{key}")
        path = bad["out_dir"] / "gate.json"
        data = json.loads(path.read_text())
        data[key] = change(data[key])
        path.write_text(json.dumps(data))
        rejects(wl.check, bad, ok)
    bad = fresh(jobs["tomography"], "-vis")
    edit(bad["out_dir"] / "tomography_summary.json",
         lambda s: s.replace("Infinity", "0.001"))
    path = bad["out_dir"] / "tomography_summary.json"
    data = json.loads(path.read_text())
    data["visibility"] += 1e-4
    path.write_text(json.dumps(data))
    rejects(wl.check, bad, ok)
    bad = fresh(jobs["tomography"], "-rho")
    edit(bad["out_dir"] / "tomography_summary.json",
         lambda s: s.replace("Infinity", "0.001"))
    edit(bad["out_dir"] / "rho_real.csv", lambda s: s.replace("0.", "0.1", 1))
    rejects(wl.check, bad, ok)
    for job in jobs.values():
        shutil.rmtree(job["out_dir"], ignore_errors=True)


def test_strict_json():
    for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        rejects(oracle.strict_json, text, error=ValueError)
    assert oracle.strict_json('{"a": 1.5}') == {"a": 1.5}


# --- metrics and tracing ------------------------------------------------------

def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == tracing.PER_LAYER, set(layer) ^ set(tracing.PER_LAYER)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    tally = run.Tally()
    tally.times = [0.01, 0.02, 0.03]
    wl = workloads.ProcessorNarrow(WORK, env=None)
    got = run.end_to_end(wl, tally, [1.0, 2.0])
    assert {k: v["unit"] for k, v in got.items()} == e2e


def test_self_time_accounting():
    tr = tracing.Tracer()
    tr.spans = [["op", 0.0, 10.0, None], ["qfp.compose_qfp", 1.0, 4.0, 0],
                ["eom.eom_operator", 2.0, 3.0, 1], ["eom.eom_operator", 5.0, 6.0, 0]]
    self_s, calls, incl = tr.layer_totals()
    assert self_s == {"op": 6.0, "qfp.compose_qfp": 2.0, "eom.eom_operator": 2.0}
    assert calls["eom.eom_operator"] == 2 and incl["op"] == 10.0
    assert sum(self_s.values()) == incl["op"]


def test_importtime_parsing():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |      50000 |       numpy",
        "import time:       200 |      60000 |   qfpsim.lattice",
        "import time:       300 |      70000 | qfpsim",
        "import time:       400 |     300000 |     scipy.optimize",
        "import time:       500 |     400000 | qfpsim.cli",
    ])
    got = tracing.parse_importtime(text)
    assert got["cli.import_ms"] == 470.0
    assert got["cli.import.numpy_ms"] == 50.0
    assert got["cli.import.scipy_optimize_ms"] == 300.0
    assert got["cli.import.scipy_constants_ms"] == 0.0


def main():
    WORK.mkdir(parents=True, exist_ok=True)
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:  # noqa: BLE001  (report every failing test)
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
