"""Frequency-bin quantum processor simulator.

Physics of a phase-modulator / ring-based waveshaper / phase-modulator
cascade acting on a lattice of optical frequency bins, plus the
surrounding experimental machinery: dither-tone calibration, biphoton
quantum walks, coincidence tomography, and a reproduction CLI.
"""

from .errors import (DegenerateScanError, FitFailureError,
                     InvalidArgumentError, OutOfRangeError,
                     ReconstructionFailureError, RetrievalFailureError,
                     UndefinedFidelityError)
from .lattice import FrequencyLattice, make_lattice

__all__ = [
    "DegenerateScanError", "FitFailureError", "InvalidArgumentError",
    "OutOfRangeError", "ReconstructionFailureError", "RetrievalFailureError",
    "UndefinedFidelityError", "FrequencyLattice", "make_lattice",
]

__version__ = "1.0.0"
