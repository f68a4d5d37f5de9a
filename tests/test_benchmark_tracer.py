"""The benchmark's tracer still finds every qfpsim name it wraps.

``perfbench/tracing.py`` looks up the functions it records, and the
solvers the modules bind from ``qfpsim._solvers``, by name in the qfpsim
modules.  A deleted or renamed one makes the traced benchmark run raise,
so install the tracer here and take it off again.  A traced gate op also
puts every processor setting it composes into a set, so a setting must
stay hashable.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import qfpsim.cli  # noqa: F401  (imports every qfpsim module)
from qfpsim import qfp
from qfpsim.lattice import FrequencyLattice, make_lattice

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """(module, name) -> value of every qfpsim module attribute, plus the
    FrequencyLattice method the tracer counts."""
    out = {(name, key): value for name, mod in sys.modules.items()
           if name.startswith("qfpsim.") and mod is not None
           for key, value in vars(mod).items()}
    out[("FrequencyLattice", "index_of")] = FrequencyLattice.index_of
    return out


def test_tracer_wraps_every_named_function_and_uninstalls():
    tracing = _load_tracing()
    before = _bindings()
    undo = tracing.install(tracing.Tracer())
    try:
        during = _bindings()
    finally:
        tracing.uninstall(undo)
    patched = {key for key, value in during.items() if value is not before[key]}
    assert len(patched) == len(undo)
    named = ([(f"qfpsim.{mod}", f) for mod, funcs in tracing.SPANNED.items() for f in funcs]
             + [(f"qfpsim.{mod}", f) for mod, f in tracing.SOLVERS + tracing.COUNTED])
    assert set(named) <= patched
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_a_traced_gate_op_runs_through_the_wrappers():
    tracing = _load_tracing()
    lat = make_lattice(193.7e12, 25e9, 16)

    def traced_gate_op():
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            # the gate op of the processor workloads, called through the
            # module attributes the tracer patched
            config = qfp.synthesize_gate(0.9, 0.4, -1.1, 0.8169, lat, (0, 1))
            qfp.compose_qfp(config)
            qfp.beamsplitter_spectra(config)
            tracer.end_op()
        finally:
            tracing.uninstall(undo)
        return tracer

    tracer = traced_gate_op()
    _, calls, _ = tracer.layer_totals()
    for name in ("qfp.synthesize_gate", "qfp.alpha_for_theta", "qfp.brentq",
                 "qfp.intrinsic_phases", "qfp.beamsplitter_spectra"):
        assert calls[name] >= 1, name
    # the gate is composed once; the probe spectra compose only the pair's
    # columns, and intrinsic_phases composes nothing
    assert calls["qfp.compose_qfp"] == 1
    # the setting's diagonals are built once and shared by compose_qfp and
    # the probe spectra, so the WS diagonal is built once
    assert calls["rings.ws_operator"] == 1
    assert tracer.counts["qfp.compose_qfp.distinct"] == 1
    assert tracer.counts["qfp.brentq.nfev"] > 0
    # what depends on the depth alone is cached, so a second gate op at
    # the same depth evaluates no Bessel row
    _, calls, _ = traced_gate_op().layer_totals()
    assert calls["qfp.synthesize_gate"] == 1
    assert calls["eom.bessel_row"] == 0


_CLI_CHILD_ORDER = """
import importlib.util
import json
import sys

import qfpsim.cli

tracing_path, config, out = sys.argv[1:]
spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing_path)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
undo = tracing.install(tracer)
loaded_before = "scipy.optimize" in sys.modules
try:
    code = qfpsim.cli.main(["gate", "--config", config, "--out", out])
finally:
    tracing.uninstall(undo)
_, calls, _ = tracer.layer_totals()
print(json.dumps({"code": code, "loaded_before": loaded_before,
                  "brentq_calls": calls["qfp.brentq"],
                  "brentq_nfev": tracer.counts["qfp.brentq.nfev"]}))
"""


def test_a_tracer_installed_before_the_first_solver_call_counts_it(tmp_path):
    # perfbench/cli_child.py imports qfpsim.cli, installs the tracer, then
    # runs main: the tracer wraps the qfp.brentq bound at import, and no
    # scipy module is loaded.  In a fresh interpreter: pytest's
    # filterwarnings has loaded scipy.optimize here
    config = tmp_path / "gate.json"
    config.write_text(json.dumps({"theta": 1.2}))  # below the largest splitting
    env = {**os.environ, "PYTHONPATH": str(Path(qfpsim.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _CLI_CHILD_ORDER, str(TRACING),
                           str(config), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["code"] == 0
    assert not result["loaded_before"]
    assert result["brentq_calls"] >= 1
    assert result["brentq_nfev"] > 0
