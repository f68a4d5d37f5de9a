"""Frequency-bin quantum processor simulator.

Physics of a phase-modulator / ring-based waveshaper / phase-modulator
cascade acting on a lattice of optical frequency bins, plus the
surrounding experimental machinery: dither-tone calibration, biphoton
quantum walks, coincidence tomography, and a reproduction CLI.
"""

__version__ = "1.0.0"
