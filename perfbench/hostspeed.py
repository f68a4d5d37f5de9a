"""Host speed, sampled with a fixed reference loop around every timed op.

On a shared machine the same work runs up to about 1.5 times slower for
stretches of seconds to minutes (another tenant on the same cores), and
CPU time slows with wall time, so neither tells the program's cost apart
from the host's. The benchmark therefore runs a short reference loop
before and after each timed op and reports every time at reference speed:

    reported = measured * REFERENCE_S / mean(reference before, after)

i.e. the time the op would take on a host where the loop takes
``REFERENCE_S``.  The loop is the benchmark's own code; it is timed only
after untimed warm loops, so that the op before it (whose footprint a
change to qfpsim may change) does not move it.  The measured times and
every reference sample are kept in each run's result.json.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 5e-4  # between this machine's fast (0.44 ms) and slow spells
WARM = 4   # untimed loops before every sample
LOOPS = 3  # timed loops per sample; a sample is their median

_KEYS = list(range(20000))
_TABLE = {i: float(i) for i in range(4096)}
_SMALL = np.full((33, 33), 0.01 + 0.01j)
_LARGE = np.full((96, 96), 0.01 + 0.01j)


def reference_loop():
    """Seconds taken by a fixed mix of interpreter work (arithmetic, dict
    stores, lookups over a few hundred kB of objects) and small complex
    matrix products, the kinds of work qfpsim's ops consist of.  Of the
    loops tried, this one tracked the processor ops best (README.md,
    "Steadiness" compares the spreads of runs at reference speed and as
    measured)."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(1500):
        acc += i * 0.5
        table[i & 63] = acc
    for i in range(0, 20000, 13):
        acc += _TABLE[_KEYS[i] & 4095]
    for _ in range(4):
        np.abs(_SMALL @ _SMALL)
    np.abs(_LARGE @ _LARGE)
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-loop samples of one run: each sample is the median of
    ``LOOPS`` timed loops after ``WARM`` untimed ones.  A loop run cold,
    straight after an op, takes about a third longer after a processor op
    (the op's cache and memory footprint) and about 1.8 times as long after
    a wait on a child process; after four untimed loops it takes the same
    after any op to within about 2 % (README.md, "Host speed")."""

    def __init__(self):
        self.samples = []

    def sample(self):
        for _ in range(WARM):
            reference_loop()
        ref = statistics.median(reference_loop() for _ in range(LOOPS))
        self.samples.append(ref)
        return ref

    @staticmethod
    def scale(before, after):
        """Factor from measured to reference-speed time."""
        return 2.0 * REFERENCE_S / (before + after)
