"""The four workloads: their seeded inputs, the timed op and its checks.

A workload makes its inputs from the benchmark seed and hands qfpsim only
those inputs.  ``run`` is the timed op; ``check`` compares its outputs
with :mod:`oracle` afterwards, untimed.  Ops call qfpsim through module
attributes (``qfp.compose_qfp``), so the traced run's wrappers see them.

Only numpy is imported here at load time: a set-up probe imports this
module plus the workload's own qfpsim modules, and nothing else may add
to the import cost it measures.
"""

import importlib
import math
import os
import resource
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np

GAMMAS = (0.0, math.pi, math.pi / 2.0, 3.0 * math.pi / 2.0)
BINS = (0, 1)
WORKING_DEPTH = 0.8169  # the 50/50 point of the beamsplitter
SPEED_OF_LIGHT = 299792458.0


class OpFailure(Exception):
    """qfpsim did not deliver a usable result (error exit, non-strict or
    non-finite output)."""


def input_rng(name, seed, stream=0):
    return np.random.default_rng([seed, zlib.crc32(name.encode()), stream])


class Workload:
    """One workload.  Per op: ``prepare`` (untimed) turns seeded inputs
    into a job, ``run`` (timed) calls qfpsim, ``check`` (untimed) compares
    the outputs with the independent computations."""

    name = ""
    modules = ()          # what the workload imports; a set-up probe times it
    tail_percentile = 50  # the percentile op_tail_ms reports

    def __init__(self, run_dir, env):
        self.run_dir = run_dir
        self.env = env   # environment of any process the workload starts

    def setup(self):
        self.mods = {m.rsplit(".", 1)[1]: importlib.import_module(m)
                     for m in self.modules}

    def round_inputs(self, rng):
        """The inputs of one round: a fixed sequence of ops."""
        raise NotImplementedError

    def warm_up_inputs(self):
        """Fixed inputs of the untimed warm-up op (no oracle import)."""
        raise NotImplementedError

    def prepare(self, inp, traced=False):
        return inp

    def run(self, job):
        raise NotImplementedError

    def adopt(self, job, tracer, root):
        """Merge spans the op recorded outside this process."""

    def check(self, job, out):
        raise NotImplementedError

    def warm_up(self):
        for inp in self.warm_up_inputs():
            self.run(self.prepare(inp))

    def peak_rss_kb(self):
        """Peak resident set of the process that ran the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- processor: one programmed-and-verified gate per op ---------------------

class Processor(Workload):
    modules = ("qfpsim.defaults", "qfpsim.lattice", "qfpsim.qfp")
    strata = 1

    def __init__(self, run_dir, env, half_width, depth_range):
        super().__init__(run_dir, env)
        self.half_width = half_width
        self.depth_range = depth_range

    def setup(self):
        super().setup()
        d = self.mods["defaults"]
        self.lattice = self.mods["lattice"].make_lattice(
            d.CENTER_FREQUENCY, d.BIN_SPACING, self.half_width)

    def round_inputs(self, rng):
        """One op per depth stratum: the depth range is cut into
        ``strata`` equal parts and each round draws one depth uniformly
        in each, so every run holds the same mix of depths (op cost
        depends strongly on the depth)."""
        from oracle import max_theta

        lo, hi = self.depth_range
        edges = np.linspace(lo, hi, self.strata + 1)
        ops = []
        for a, b in zip(edges[:-1], edges[1:]):
            delta = float(rng.uniform(a, b)) if b > a else float(a)
            theta = float(rng.uniform(0.0, max_theta(delta)))
            lam, mu = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
            ops.append(dict(theta=theta, lam=lam, mu=mu, delta=delta))
        return ops

    def warm_up_inputs(self):
        return [dict(theta=0.4, lam=0.3, mu=-0.3, delta=self.depth_range[0])]

    def run(self, inp):
        qfp = self.mods["qfp"]
        theta, lam, mu, delta = inp["theta"], inp["lam"], inp["mu"], inp["delta"]
        config = qfp.synthesize_gate(theta, lam, mu, delta, self.lattice, BINS)
        op = qfp.compose_qfp(config)
        v = qfp.submatrix(op, BINS)
        spectra = qfp.beamsplitter_spectra(config, gammas=GAMMAS)
        v_rec = qfp.reconstruct_submatrix(spectra, self.lattice, BINS)
        target = qfp.target_unitary(theta, lam, mu)
        return dict(entries=op.entries, v=v, spectra=spectra, v_rec=v_rec,
                    fidelity=qfp.fidelity(v, target),
                    success=qfp.success_probability(v))

    def check(self, inp, out):
        import oracle

        oracle.check_gate_block(out["v"], inp["theta"], inp["lam"], inp["mu"],
                                inp["delta"], fidelity=out["fidelity"],
                                success=out["success"])
        oracle.check_reconstruction(out["v_rec"], out["v"])
        oracle.check_operator(out["entries"], inp["delta"])
        oracle.check_spectra(out["spectra"])


class ProcessorNarrow(Processor):
    name = "processor-narrow"
    # p95, not p99: in some runs stalls of tens of ms (the VM descheduled,
    # seen as steal time) hit 1-2 % of these 10-ms ops and moved p99 by 35 %
    tail_percentile = 95

    def __init__(self, run_dir, env):
        super().__init__(run_dir, env, 16, (WORKING_DEPTH, WORKING_DEPTH))


class ProcessorWide(Processor):
    name = "processor-wide"
    tail_percentile = 97
    strata = 7

    def __init__(self, run_dir, env):
        super().__init__(run_dir, env, 64, (1.0, 4.0))


# --- solvers: one device instance characterised per op ----------------------

NUM_PAIRS = 6
SCAN_POINTS = 13
SCAN_SPAN = 0.6       # linewidths
SWEEP_POINTS = 24
SHOTS = 1e4
FRINGE_POINTS = 13
FRINGE_SHOTS = 2e5
MLE_FIDELITY_FLOOR = 0.90  # 10^4 shots: infidelity mean 0.019, max 0.048 in 500 states


class Solvers(Workload):
    name = "solvers"
    modules = ("qfpsim.defaults", "qfpsim.lattice", "qfpsim.rings",
               "qfpsim.calib", "qfpsim.biphoton", "qfpsim.tomo")
    # ~15 ops a run: no percentile above the median has ten ops beyond it
    tail_percentile = 50

    def setup(self):
        super().setup()
        d = self.mods["defaults"]
        self.lattice = self.mods["lattice"].make_lattice(
            d.CENTER_FREQUENCY, d.BIN_SPACING, d.DEFAULT_HALF_WIDTH)
        self.pairs = [(k, -k) for k in range(1, NUM_PAIRS + 1)]

    def round_inputs(self, rng):
        return [dict(
            detunings=[float(x) for x in rng.uniform(-0.45, 0.45, 2)],
            channel_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
            power_2pi=float(rng.uniform(0.8, 1.6)),
            phase_offset=float(rng.uniform(-math.pi, math.pi)),
            pair_phases=[0.0] + [float(x) for x in rng.uniform(-0.3, 0.3,
                                                                NUM_PAIRS - 1)],
            suppression_db=float(rng.uniform(12.0, 16.0)),
            bell_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
            noise_seed=int(rng.integers(2**32)))]

    def warm_up_inputs(self):
        return [dict(detunings=[0.27, -0.18], channel_phase=1.0,
                     power_2pi=1.3, phase_offset=0.4,
                     pair_phases=[0.0, 0.05, -0.05, 0.1, -0.1, 0.0],
                     suppression_db=13.5, bell_phase=0.0, noise_seed=5)]

    def run(self, inp):
        d, rings, calib = self.mods["defaults"], self.mods["rings"], self.mods["calib"]
        biphoton, tomo = self.mods["biphoton"], self.mods["tomo"]
        noise = np.random.default_rng(inp["noise_seed"])
        out = {}

        # dither alignment scan and heater phase curve of one WS unit
        ring = rings.make_ring(SPEED_OF_LIGHT / d.CENTER_FREQUENCY,
                               d.POWER_COUPLING, d.LOSS_DB_PER_CM,
                               d.RING_RADIUS, d.EFFECTIVE_INDEX)
        lw = ring.linewidth_fwhm
        dither = calib.DitherConfig(0.05 * lw)
        probe = ring.resonance_wavelength
        planted = tuple(x * lw for x in inp["detunings"])
        unit = rings.WsUnitConfig(ring, ring, channel_phase=inp["channel_phase"],
                                  detunings=planted)
        grid = np.linspace(-SCAN_SPAN * lw, SCAN_SPAN * lw, SCAN_POINTS)
        scan = calib.align_scan(unit, grid, grid, dither, probe)
        out.update(scan_map=scan.scan_map, grid=grid, ring=ring, dither=dither,
                   probe=probe, planted_detunings=planted,
                   recovered_detunings=(scan.detuning_demux, scan.detuning_mux))
        powers = np.linspace(0.0, 2.2 * inp["power_2pi"], SWEEP_POINTS)
        traces = calib.simulate_phase_sweep(
            rings.ws_unit(ring, ring), powers, inp["power_2pi"],
            inp["phase_offset"], dither, probe)
        out["calibration"] = calib.fit_phase_curve(powers, traces, dither)

        # planted-phase retrieval on a six-pair biphoton walk
        lat = self.lattice
        weights = biphoton.comb_envelope(NUM_PAIRS, d.PUMP_FILTER_FSR,
                                         d.BIN_SPACING,
                                         d.PUMP_FILTER_EXTINCTION_DB)
        sig, idl = biphoton.walk_operators(d.WALK_DEPTH, lat)
        base = biphoton.comb_state(lat, lat, self.pairs, weights=weights)
        planted_phases = np.asarray(inp["pair_phases"])
        measurements = []
        for offsets in (np.zeros(NUM_PAIRS),
                        biphoton.retrieval_reference_offsets(NUM_PAIRS)):
            state = biphoton.comb_state(lat, lat, self.pairs, weights=weights,
                                        phases=planted_phases + offsets)
            measurements.append((offsets, biphoton.jsi(
                biphoton.apply_joint(state, sig, idl), "integral")))
        out["phases"] = biphoton.retrieve_phases(measurements, base,
                                                 self.pairs, sig, idl)

        # MLE tomography and fringe fit of a Poisson-sampled Bell state
        rho = tomo.carve_bell_state(inp["suppression_db"], inp["bell_phase"])
        exact = tomo.simulate_counts(rho, SHOTS)
        accidental = max(r.counts for r in exact) / SHOTS / d.CAR
        records = tomo.simulate_counts(rho, SHOTS, accidental_fraction=accidental,
                                       rng=noise)
        out["rho"] = tomo.mle_reconstruct(records)
        phis = np.linspace(0.0, 2.0 * math.pi, FRINGE_POINTS)
        rates = tomo.bell_fringe(rho, phis)
        counts = noise.poisson((rates + rates.max() / d.CAR) * FRINGE_SHOTS)
        out["fringe_rates"] = rates
        out["fringe"] = tomo.fit_visibility(phis, counts.astype(float))
        out["car"] = d.CAR
        out["depth"] = tomo.DEFAULT_MEASUREMENT_DEPTH
        return out

    def check(self, inp, out):
        import oracle

        expected = oracle.alignment_map(out["ring"], out["planted_detunings"],
                                        inp["channel_phase"], out["grid"],
                                        out["dither"], out["probe"])
        oracle.check_alignment(out["scan_map"], out["recovered_detunings"],
                               out["grid"], expected, out["planted_detunings"])
        cal = out["calibration"]
        oracle.check_phase_fit(cal.power_2pi, cal.phase_offset,
                               inp["power_2pi"], inp["phase_offset"])
        oracle.check_phases(out["phases"], inp["pair_phases"])
        sup, phase = inp["suppression_db"], inp["bell_phase"]
        oracle.check_density(out["rho"], oracle.bell_state(sup, phase),
                             MLE_FIDELITY_FLOOR)
        phis = np.linspace(0.0, 2.0 * math.pi, FRINGE_POINTS)
        oracle.check_fringe(out["fringe_rates"], phis, sup, phase, out["depth"])
        vis, sigma = oracle.fringe_model(phis, sup, phase, out["depth"],
                                         out["car"], FRINGE_SHOTS)
        fit = out["fringe"]
        oracle.check_visibility(fit.visibility, fit.visibility_sigma, vis, sigma)


# --- cli-cold: one fresh qfpsim process per op -------------------------------

TOMOGRAPHY_CONFIG = {"suppression_db": 13.5, "shots": 1e4, "fringe_points": 13,
                     "fringe_shots": 2e5, "bell_phase": 0.0}


class CliCold(Workload):
    name = "cli-cold"
    modules = ("qfpsim.cli",)
    tail_percentile = 60

    def setup(self):
        super().setup()
        from qfpsim import defaults as d, tomo

        self.analyzer_depth = tomo.DEFAULT_MEASUREMENT_DEPTH
        self.depth = d.WORKING_DEPTH
        self.half_width = d.DEFAULT_HALF_WIDTH
        self.car = d.CAR
        self.work = self.run_dir / "cli"
        self.work.mkdir(parents=True, exist_ok=True)
        self.count = 0
        self.child_rss_kb = 0  # largest untraced qfpsim process

    def warm_up(self):
        pass  # every op starts a fresh interpreter: nothing to warm

    def round_inputs(self, rng):
        from oracle import max_theta

        a_min = rng.uniform(math.pi, 1.25 * math.pi)
        a_max = rng.uniform(1.75 * math.pi, 2.0 * math.pi)
        return [
            ("spectrum", {"alpha": float(rng.uniform(math.pi, 2 * math.pi)),
                          "input_bin": int(rng.integers(2))}),
            ("beamsplitter", {"alpha_min": float(a_min),
                              "alpha_max": float(a_max),
                              "alpha_points": int(rng.integers(4, 9))}),
            ("gate", {"theta": float(rng.uniform(0.0, max_theta(self.depth))),
                      "lam": float(rng.uniform(-math.pi, math.pi)),
                      "mu": float(rng.uniform(-math.pi, math.pi))}),
            # fixed: the fault this op meets does not depend on the seed
            ("tomography", dict(TOMOGRAPHY_CONFIG)),
        ]

    def prepare(self, inp, traced=False):
        """Write the op's config; the argv of a plain ``python -m
        qfpsim.cli`` process, or of cli_child.py when traced."""
        import json

        cmd, cfg = inp
        self.count += 1
        cfg_path = self.work / f"op{self.count}.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = self.work / f"op{self.count}"
        args = [cmd, "--config", str(cfg_path), "--out", str(out_dir),
                "--seed", str(self.count)]
        if cmd == "tomography":
            args.append("--expected-value")
        spans = self.work / f"op{self.count}.spans.json" if traced else None
        if spans is None:
            argv = [sys.executable, "-m", "qfpsim.cli", *args]
        else:
            child = Path(__file__).resolve().parent / "cli_child.py"
            argv = [sys.executable, str(child), str(spans), *args]
        return dict(inp=inp, argv=argv, out_dir=out_dir, spans=spans,
                    cfg_path=cfg_path)

    def run(self, job):
        """Start one qfpsim process and wait for it."""
        proc = subprocess.Popen(job["argv"], env=self.env, cwd=self.run_dir,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if job["spans"] is None:
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return dict(code=proc.returncode, err=err.decode(errors="replace"))

    def peak_rss_kb(self):
        return self.child_rss_kb

    def adopt(self, job, tracer, root):
        import json

        if job["spans"] is not None and job["spans"].exists():
            data = json.loads(job["spans"].read_text())
            tracer.merge(data["spans"], data["counts"], root)

    def check(self, job, out):
        import csv

        import oracle

        (cmd, cfg), out_dir = job["inp"], job["out_dir"]
        try:
            if out["code"] != 0:
                raise OpFailure(f"{cmd} exited {out['code']}: "
                                f"{out['err'].strip()[-300:]}")

            def table(name):
                try:
                    with open(out_dir / name, newline="") as fh:
                        rows = list(csv.reader(fh))[1:]
                    vals = np.array([[float(x) for x in r] for r in rows])
                except (OSError, ValueError) as exc:  # missing, unparsable
                    raise OpFailure(f"{name}: {exc}") from exc
                if not np.all(np.isfinite(vals)):
                    raise OpFailure(f"{name} holds a non-finite value")
                return vals

            def summary(name):
                try:
                    return oracle.strict_json((out_dir / name).read_text())
                except (OSError, ValueError) as exc:
                    raise OpFailure(f"{name}: {exc}") from exc

            try:
                self._check_outputs(cmd, cfg, table, summary)
            except KeyError as exc:
                raise OpFailure(f"{cmd} output lacks {exc}") from exc
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            for path in (job["cfg_path"], job["spans"]):
                if path is not None:
                    path.unlink(missing_ok=True)

    def _check_outputs(self, cmd, cfg, table, summary):
        import oracle

        if cmd == "spectrum":
            oracle.check_spectrum_output(
                cfg, table("spectrum.csv"), summary("spectrum_summary.json"),
                self.depth, self.half_width)
        elif cmd == "beamsplitter":
            oracle.check_beamsplitter_output(
                cfg, table("beamsplitter.csv"),
                summary("beamsplitter_summary.json"), self.depth)
        elif cmd == "gate":
            oracle.check_gate_output(cfg, summary("gate.json"), self.depth)
        else:
            s = summary("tomography_summary.json")
            rho = table("rho_real.csv") + 1j * table("rho_imag.csv")
            oracle.check_tomography_output(cfg, rho, s,
                                           depth=self.analyzer_depth,
                                           car=self.car)


WORKLOADS = {cls.name: cls for cls in (CliCold, ProcessorNarrow, ProcessorWide,
                                       Solvers)}


def make(name, run_dir, env):
    return WORKLOADS[name](run_dir, env)
