"""Frequency-bin index space shared by every mode operator.

Bins live on an equally spaced lattice; indices are signed integers
centered on bin 0, and no physical frequency is stored per bin.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

SPEED_OF_LIGHT = 299792458.0  # m/s, exact in SI


@dataclass(frozen=True)
class FrequencyLattice:
    """Equally spaced frequency bins over a finite index window.

    Attributes:
        center_frequency: frequency of bin 0 in Hz.
        spacing: bin separation in Hz, strictly positive.
        l_min, l_max: inclusive index window.
    """

    center_frequency: float
    spacing: float
    l_min: int
    l_max: int

    def __post_init__(self):
        if self.spacing <= 0:
            raise InvalidArgumentError("lattice spacing must be positive")
        if self.l_min >= self.l_max:
            raise InvalidArgumentError("window must contain at least two bins")

    @property
    def size(self) -> int:
        return self.l_max - self.l_min + 1

    @property
    def bins(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_max + 1)

    def index_of(self, l: int) -> int:
        """Position of bin ``l`` in the matrix ordering; raises if outside."""
        if not self.l_min <= l <= self.l_max:
            raise InvalidArgumentError(f"bin {l} outside window [{self.l_min}, {self.l_max}]")
        return int(l) - self.l_min


def make_lattice(center_frequency: float, spacing: float, half_width: int) -> FrequencyLattice:
    """Lattice with window [-half_width, +half_width] and bin 0 at the center frequency."""
    return FrequencyLattice(center_frequency, spacing, -int(half_width), int(half_width))
