"""Set-up probe: a fresh interpreter that imports one workload's modules,
runs its untimed warm-up op and prints ``ready``.

    python3 perfbench/probe.py <workload> <run directory>

run.py times it from start to the ``ready`` line; the median of several
probes is the workload's ``setup_s``.
"""

import sys
from pathlib import Path

import machine

machine.pin_blas_threads()

import workloads  # noqa: E402  (after the BLAS pin)


def main(argv):
    name, run_dir = argv
    wl = workloads.make(name, Path(run_dir), env=None)
    wl.setup()
    wl.warm_up()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
