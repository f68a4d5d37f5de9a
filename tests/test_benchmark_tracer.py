"""The benchmark's tracer still finds every qfpsim name it wraps.

``perfbench/tracing.py`` looks up the functions it records, and the scipy
solvers the modules bind, by name in the qfpsim modules.  A deleted or
renamed one makes the traced benchmark run raise, so install the tracer
here and take it off again.  A traced gate op also puts every processor
setting it composes into a set, so a setting must stay hashable.
"""

import importlib.util
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
    assert calls["rings.ws_operator"] == 2
    assert tracer.counts["qfp.compose_qfp.distinct"] == 1
    assert tracer.counts["qfp.brentq.nfev"] > 0
    # what depends on the depth alone is cached, so a second gate op at
    # the same depth evaluates no Bessel row
    _, calls, _ = traced_gate_op().layer_totals()
    assert calls["qfp.synthesize_gate"] == 1
    assert calls["eom.bessel_row"] == 0
