"""Benchmark of qfpsim: closed-loop workloads from a single client process.

    python3 perfbench/run.py --workload processor-narrow --seed 1 \
        --seconds 24 --trace 0

Run from the root of a source checkout (qfpsim is imported from ``src/``).
Each op is timed, then checked against computations made apart from
qfpsim.  With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
README.md).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the machine.  Run records, traces and command-line
output go under ``.perfbench-runs/``.
"""

import os
import sys
from pathlib import Path

import machine

machine.pin_blas_threads()  # before anything loads numpy

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
PROBES = 5  # fresh interpreters per set-up or import measurement


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    """Environment of every process the benchmark starts: one BLAS thread
    (inherited from this process) and qfpsim importable from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_probe(name, run_dir, env):
    """Seconds from starting a fresh interpreter until it has imported the
    workload's modules and finished one warm-up op."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), name,
                             str(run_dir)], env=env, cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=150)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err}")
    return elapsed


def between_samples(host, fn):
    """fn(), which waits on a child process, run between two host-speed
    samples: (its result, the factor to reference speed)."""
    before = host.sample()
    out = fn()
    return out, host.scale(before, host.sample())


def import_metrics(modules, env, host):
    """Medians over fresh interpreters, at reference speed: a bare start,
    and the -X importtime split of importing the workload's modules."""
    def bare():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        return 1e3 * (time.perf_counter() - t0)

    starts = [ms * k for ms, k in (between_samples(host, bare)
                                   for _ in range(PROBES))]
    profiles = []
    for _ in range(PROBES):
        prof, k = between_samples(
            host, lambda: tracing.import_profile(modules, env, ROOT))
        profiles.append({key: ms * k for key, ms in prof.items()})
    out = {"cli.interpreter_ms": statistics.median(starts)}
    for key in profiles[0]:
        out[key] = statistics.median(p[key] for p in profiles)
    return out


class Tally:
    """Op times (measured, and at reference speed) and outcomes of a run."""

    def __init__(self):
        self.times, self.traced_times = [], []          # reference speed
        self.raw_times, self.raw_traced_times = [], []  # as measured
        self.attempted = self.failed = 0
        self.failures, self.wrong = [], []


def measure(wl, rng, seconds, trace, host):
    """Whole rounds of ops until ``seconds`` have passed, each op between
    two host-speed samples.  A traced run alternates traced and untraced
    rounds, which gives the overhead."""
    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    rounds = 0
    before = host.sample()
    while time.perf_counter() - start < seconds:
        traced = trace and rounds % 2 == 0
        for inp in wl.round_inputs(rng):
            job = wl.prepare(inp, traced)
            if traced:
                undo = tracing.install(tracer)
                root = tracer.open(tracing.ROOT)
            t0 = time.perf_counter()
            try:
                out, error = wl.run(job), None
            except Exception as exc:  # noqa: BLE001  (a failed op is data)
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.close_op(root)
                tracing.uninstall(undo)
            after = host.sample()
            scale = host.scale(before, after)
            before = after
            if traced:
                tracer.root_scale[root] = scale
                wl.adopt(job, tracer, root)
                tally.traced_times.append(elapsed * scale)
                tally.raw_traced_times.append(elapsed)
            else:
                tally.times.append(elapsed * scale)
                tally.raw_times.append(elapsed)
            tally.attempted += 1
            if error is None:
                try:
                    wl.check(job, out)
                except workloads.OpFailure as exc:
                    error = str(exc)
                except CheckError as exc:
                    tally.wrong.append(str(exc))
            if error is not None:
                tally.failed += 1
                tally.failures.append(error)
        rounds += 1
    return tally, tracer


def end_to_end(wl, tally, setup_samples):
    times_ms = [1e3 * t for t in tally.times]
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(tally.times) / sum(tally.times),
        "op_p50_ms": statistics.median(times_ms),
        "op_tail_ms": float(np.percentile(times_ms, wl.tail_percentile)),
        "peak_rss_mb": wl.peak_rss_kb() / 1024.0,
    }
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "peak_rss_mb": "MB"}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qfpsim" / "cli.py").is_file():
        print(f"error: no qfpsim sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    run_dir = RUNS / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"-{os.getpid()}")
    run_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, run_dir, env)
    host = hostspeed.HostSpeed()
    setup_samples, raw_setup, imports = [], [], {}
    if args.trace:
        imports = import_metrics(wl.modules, env, host)
    else:
        for _ in range(PROBES):
            elapsed, scale = between_samples(
                host, lambda: setup_probe(wl.name, run_dir, env))
            raw_setup.append(elapsed)
            setup_samples.append(elapsed * scale)
    wl.setup()
    wl.warm_up()
    rng = workloads.input_rng(wl.name, args.seed)
    tally, tracer = measure(wl, rng, args.seconds, args.trace, host)

    if args.trace:
        values = tracing.layer_metrics(tracer, tally.traced_times, tally.times,
                                       imports, host.samples)
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]}
                   for k, v in values.items()}
        tracer.dump(run_dir / "spans.jsonl.gz")
    else:
        metrics = end_to_end(wl, tally, setup_samples)
    result = {"correct": not tally.wrong, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = machine.record(ROOT, SRC)
    with open(run_dir / "result.json", "w") as fh:
        json.dump({"machine": record, "args": vars(args), "result": result,
                   "reference_s": hostspeed.REFERENCE_S,
                   "host_samples_s": host.samples,
                   "setup_s_measured": raw_setup,
                   "setup_s_reference_speed": setup_samples,
                   "op_s_measured": tally.raw_times,
                   "op_s_reference_speed": tally.times,
                   "traced_op_s_measured": tally.raw_traced_times,
                   "traced_op_s_reference_speed": tally.traced_times,
                   "failures": tally.failures[:50],
                   "wrong": tally.wrong[:50]}, fh, indent=1)
    for label, msgs in (("failed", tally.failures), ("wrong", tally.wrong)):
        if msgs:
            print(f"{wl.name}: {len(msgs)} of {tally.attempted} ops {label}; "
                  f"first: {msgs[0]}", file=sys.stderr)
    print(json.dumps({"machine": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
