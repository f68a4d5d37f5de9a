"""Spans around calls into qfpsim, recorded from the benchmark's side.

:func:`install` replaces the public functions listed in ``SPANNED`` (and
the scipy solvers the modules bound) by wrappers in every qfpsim module
namespace that bound them, so calls between qfpsim modules are recorded
too.  Each wrapper appends one span (name, start, end, parent) to the
:class:`Tracer`; spans stay in memory until the run writes them out.
A span's self time is its duration minus the time its child spans cover.

This module imports no numpy, so a traced command-line child can load it
before qfpsim without changing what qfpsim's import costs.
"""

import functools
import gzip
import json
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

# module -> public functions recorded as spans (self time and calls)
SPANNED = {
    "eom": ("bessel_row", "truncation_order", "eom_operator"),
    "rings": ("ws_operator", "ws_unit_response"),
    "qfp": ("rt_closed_form", "jbar", "alpha_for_theta", "intrinsic_phases",
            "synthesize_gate", "compose_qfp", "submatrix",
            "simulate_output_spectrum", "beamsplitter_spectra",
            "reconstruct_submatrix", "fidelity", "success_probability"),
    "calib": ("align_scan", "simulate_phase_sweep", "fit_phase_curve",
              "harmonic_component"),
    "biphoton": ("comb_state", "walk_operators", "retrieve_phases"),
    "tomo": ("simulate_counts", "mle_reconstruct", "bell_fringe",
             "fit_visibility"),
}
# scipy entry points bound by name in a qfpsim module: spans that also
# count the objective evaluations the solver makes
SOLVERS = (("qfp", "brentq"), ("calib", "curve_fit"),
           ("biphoton", "minimize"), ("tomo", "minimize"),
           ("tomo", "curve_fit"))
# called tens of thousands of times per op: counted, not spanned
COUNTED = (("biphoton", "apply_joint"),)
CHILD_SPANS = ("cli.import", "cli.main")  # recorded by cli_child.py
ROOT = "op"

SPAN_NAMES = ((ROOT,) + CHILD_SPANS
              + tuple(f"{m}.{f}" for m, fs in SPANNED.items() for f in fs)
              + tuple(f"{m}.{f}" for m, f in SOLVERS))

# name -> (unit, better) of every per-layer metric, in report order
PER_LAYER = {
    "cli.interpreter_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.import.numpy_ms": ("ms", "lower"),
    "cli.import.scipy_optimize_ms": ("ms", "lower"),
    "cli.import.scipy_constants_ms": ("ms", "lower"),
    "cli.main_ms": ("ms", "lower"),
}
for _name in SPAN_NAMES:
    PER_LAYER[f"{_name}.ms"] = ("ms", "lower")
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
PER_LAYER.update({
    "qfp.brentq.nfev": ("count", "lower"),
    "qfp.compose_qfp.distinct_frac": ("ratio", "higher"),
    "rings.ws_unit_response.samples": ("count", "lower"),
    "calib.curve_fit.nfev": ("count", "lower"),
    "calib.curve_fit.useful_frac": ("ratio", "higher"),
    "tomo.curve_fit.nfev": ("count", "lower"),
    "biphoton.minimize.nfev": ("count", "lower"),
    "biphoton.minimize.useful_frac": ("ratio", "higher"),
    "biphoton.apply_joint.calls": ("count", "lower"),
    "lattice.index_of.calls": ("count", "lower"),
    "tomo.minimize.nfev": ("count", "lower"),
    "tomo.minimize.nit": ("count", "lower"),
    "tomo.minimize.useful_frac": ("ratio", "higher"),
    "trace.op_ms": ("ms", "lower"),
    "trace.untraced_op_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "host.reference_ms": ("ms", "lower"),
})
del _name

# solver span -> the qfpsim function that keeps one of its runs
USEFUL = {"calib.curve_fit": "calib.fit_phase_curve",
          "biphoton.minimize": "biphoton.retrieve_phases",
          "tomo.minimize": "tomo.mle_reconstruct"}


class Tracer:
    """In-memory span list plus counters, filled while wrappers are on."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.op_configs = set()  # distinct processor settings in this op
        self.root_scale = {}     # op span -> factor to reference speed

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def close_op(self, idx):
        self.close(idx)
        self.end_op()

    def end_op(self):
        self.counts["qfp.compose_qfp.distinct"] += len(self.op_configs)
        self.op_configs.clear()

    def merge(self, spans, counts, parent):
        """Adopt spans recorded by a child process under span ``parent``;
        perf_counter is the system-wide monotonic clock on Linux."""
        base = len(self.spans)
        for name, start, end, up in spans:
            self.spans.append([name, start, end,
                               parent if up is None else base + up])
        self.counts.update(counts)

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def layer_totals(self):
        """(self seconds, calls, inclusive seconds) per span name, each
        span scaled to reference speed by the factor of its op."""
        covered = [0.0] * len(self.spans)
        scale = [1.0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent is None:
                scale[i] = self.root_scale.get(i, 1.0)
            else:
                covered[parent] += end - start
                scale[i] = scale[parent]
        self_s, calls, incl = defaultdict(float), Counter(), defaultdict(float)
        for (name, start, end, _), kids, k in zip(self.spans, covered, scale):
            self_s[name] += (end - start - kids) * k
            incl[name] += (end - start) * k
            calls[name] += 1
        return self_s, calls, incl


def _span_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


def _compose_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def traced(config, *args, **kwargs):
        tracer.op_configs.add(config)
        idx = tracer.open(name)
        try:
            return fn(config, *args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


def _response_wrapper(tracer, name, fn):
    import numpy as np

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.counts[f"{name}.samples"] += int(np.size(out))
        return out
    return traced


def _solver_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def traced(objective, *args, **kwargs):
        @functools.wraps(objective)
        def counted(*a, **k):
            tracer.counts[f"{name}.nfev"] += 1
            return objective(*a, **k)

        idx = tracer.open(name)
        try:
            out = fn(counted, *args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.counts[f"{name}.nit"] += int(getattr(out, "nit", 0) or 0)
        return out
    return traced


def _count_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts[f"{name}.calls"] += 1
        return fn(*args, **kwargs)
    return counted


def install(tracer):
    """Wrap every listed function in every qfpsim namespace that bound it.

    Returns the undo list for :func:`uninstall`.  Only modules already
    imported are patched.
    """
    mods = {key.split(".", 1)[1]: mod for key, mod in sys.modules.items()
            if key.startswith("qfpsim.") and mod is not None}
    undo = []

    def patch_everywhere(module, attr, make):
        orig = getattr(module, attr)
        new = make(tracer, f"{module.__name__.split('.', 1)[1]}.{attr}", orig)
        for mod in mods.values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, key, val))
                    setattr(mod, key, new)

    for short, funcs in SPANNED.items():
        if short in mods:
            for attr in funcs:
                make = {"compose_qfp": _compose_wrapper,
                        "ws_unit_response": _response_wrapper}.get(
                            attr, _span_wrapper)
                patch_everywhere(mods[short], attr, make)
    for short, attr in SOLVERS:  # one wrapper per binding module
        if short in mods:
            mod = mods[short]
            orig = getattr(mod, attr)
            undo.append((mod, attr, orig))
            setattr(mod, attr, _solver_wrapper(tracer, f"{short}.{attr}", orig))
    for short, attr in COUNTED:
        if short in mods:
            patch_everywhere(mods[short], attr, _count_wrapper)
    if "lattice" in mods:
        cls = mods["lattice"].FrequencyLattice
        undo.append((cls, "index_of", cls.index_of))
        cls.index_of = _count_wrapper(tracer, "lattice.index_of", cls.index_of)
    return undo


def uninstall(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def layer_metrics(tracer, traced_times, untraced_times, imports, host_samples):
    """Every PER_LAYER metric: per traced op from the recorded spans, the
    import split, and the median reference-loop time of the run."""
    n = max(len(traced_times), 1)
    self_s, calls, incl = tracer.layer_totals()
    counts = tracer.counts
    out = dict(imports)
    out["cli.main_ms"] = 1e3 * incl["cli.main"] / n
    for name in SPAN_NAMES:
        out[f"{name}.ms"] = 1e3 * self_s[name] / n
        out[f"{name}.calls"] = calls[name] / n
    for key in ("qfp.brentq.nfev", "rings.ws_unit_response.samples",
                "calib.curve_fit.nfev", "tomo.curve_fit.nfev",
                "biphoton.minimize.nfev", "biphoton.apply_joint.calls",
                "lattice.index_of.calls", "tomo.minimize.nfev",
                "tomo.minimize.nit"):
        out[key] = counts[key] / n
    composed = calls["qfp.compose_qfp"]
    out["qfp.compose_qfp.distinct_frac"] = (
        counts["qfp.compose_qfp.distinct"] / composed if composed else 0.0)
    for solver, keeper in USEFUL.items():
        out[f"{solver}.useful_frac"] = (
            calls[keeper] / calls[solver] if calls[solver] else 0.0)
    traced = sum(traced_times) / n
    untraced = sum(untraced_times) / max(len(untraced_times), 1)
    out["trace.op_ms"] = 1e3 * traced
    out["trace.untraced_op_ms"] = 1e3 * untraced
    out["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    out["host.reference_ms"] = 1e3 * statistics.median(host_samples)
    return {key: out[key] for key in PER_LAYER}


# --- import cost -----------------------------------------------------------

IMPORT_PARTS = {"numpy": "cli.import.numpy_ms",
                "scipy.optimize": "cli.import.scipy_optimize_ms",
                "scipy.constants": "cli.import.scipy_constants_ms"}


def parse_importtime(stderr):
    """cli.import_ms (top-level qfpsim imports, cumulative) and the
    cumulative time of numpy, scipy.optimize and scipy.constants, in ms;
    0 for a package the modules do not import."""
    out = {"cli.import_ms": 0.0, **{key: 0.0 for key in IMPORT_PARTS.values()}}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = field.strip()
        level = (len(field) - len(field.lstrip()) - 1) // 2
        ms = int(cumulative) / 1e3
        if level == 0 and name.split(".")[0] == "qfpsim":
            out["cli.import_ms"] += ms
        if name in IMPORT_PARTS and out[IMPORT_PARTS[name]] == 0.0:
            out[IMPORT_PARTS[name]] = ms
    return out


def import_profile(modules, env, cwd):
    """One fresh interpreter importing ``modules`` under -X importtime."""
    code = "import " + ", ".join(modules)
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120, check=True)
    return parse_importtime(done.stderr)
