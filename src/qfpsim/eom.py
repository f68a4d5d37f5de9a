"""Single-tone electro-optic phase modulator as a bin-mixing operator.

A modulator driven with instantaneous phase ``depth * sin(Omega t + phase)``
scatters bin n to bin m with amplitude J_{m-n}(depth) * exp(i (m-n) phase),
so an upshift by one bin carries exp(i*phase).  Bessel functions come
from ``scipy.special.jv``, imported on first use so that importing this
module loads only numpy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .lattice import FrequencyLattice

BESSEL_MAX_ARGUMENT = 50.0
TRUNCATION_POWER_TOL = 1e-14
DEFAULT_UNITARITY_TOL = 1e-10


def bessel_row(max_order: int, argument: float) -> np.ndarray:
    """J_0..J_max_order(argument) in one ``scipy.special.jv`` call.

    Raises:
        InvalidArgumentError: if |argument| exceeds the validated range.
    """
    if abs(argument) > BESSEL_MAX_ARGUMENT:
        raise InvalidArgumentError(
            f"|argument| = {abs(argument)} exceeds validated range {BESSEL_MAX_ARGUMENT}")
    from scipy.special import jv  # imported here so this module loads only numpy

    return jv(np.arange(max_order + 1), argument)


def truncation_order(depth: float, tol: float = TRUNCATION_POWER_TOL) -> int:
    """Smallest K with sum_{|j|>K} J_j(depth)^2 < tol.

    Used as the interior guard margin: bins farther than K from the window
    edge see the operator as rigorously unitary.
    """
    if depth == 0.0:
        return 0
    row = bessel_row(int(np.ceil(depth)) + 60, depth)
    power = row**2
    total = power[0] + 2.0 * power[1:].sum()
    tail = total - power[0]
    k = 0
    while tail >= tol:
        k += 1
        if k >= len(row):
            raise InvalidArgumentError("truncation order not found; depth too large")
        tail -= 2.0 * power[k]
    return k


@dataclass(frozen=True)
class RfDrive:
    """Single-tone RF drive of a phase modulator.

    Attributes:
        depth: modulation depth in radians (>= 0).
        phase: RF phase in radians.
        frequency: tone frequency in Hz; must equal the lattice spacing.
        enabled: disabled drive is equivalent to depth 0.
    """

    depth: float
    phase: float = 0.0
    frequency: float | None = None
    enabled: bool = True

    def __post_init__(self):
        if self.depth < 0:
            raise InvalidArgumentError("modulation depth must be non-negative")

    @property
    def effective_depth(self) -> float:
        return self.depth if self.enabled else 0.0


@dataclass(frozen=True)
class ModeOperator:
    """Complex matrix over a lattice window, indexed (output bin, input bin)."""

    lattice: FrequencyLattice
    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        n = self.lattice.size
        if self.entries.shape != (n, n):
            raise InvalidArgumentError("operator dimensions must match the lattice window")


def eom_operator(drive: RfDrive, lattice: FrequencyLattice) -> ModeOperator:
    """Mode-mixing operator of a sinusoidally driven phase modulator.

    M[m, n] = J_{m-n}(depth) exp(i (m-n) phase).  The matrix keeps the full
    Toeplitz band across the window; only the finite window truncates, which
    keeps the interior (margin ``truncation_order(depth)``) unitary to well
    below the default tolerance.
    """
    if drive.frequency is not None and not np.isclose(drive.frequency, lattice.spacing,
                                                      rtol=1e-9, atol=0.0):
        raise InvalidArgumentError(
            f"drive frequency {drive.frequency} does not match lattice spacing {lattice.spacing}"
        )
    depth = drive.effective_depth
    n = lattice.size
    # the Toeplitz band: entry k holds the coefficient of offset m - n = k - (n - 1)
    diff = np.arange(1 - n, n)
    row = bessel_row(n - 1, depth)
    mag = row[np.abs(diff)]
    sign = np.where((diff < 0) & (np.abs(diff) % 2 == 1), -1.0, 1.0)
    band = mag * sign * np.exp(1j * diff * drive.phase)
    index = np.arange(n)
    entries = band[index[:, None] - index[None, :] + (n - 1)]
    return ModeOperator(lattice, entries, label=f"EOM(d={depth:.4g})")


def unitarity_deficit(op: ModeOperator, interior_margin: int) -> float:
    """max |(M^dag M - I)[m, n]| over bins at least ``interior_margin`` from the edge."""
    n = op.lattice.size
    if interior_margin >= (n - 1) // 2:
        raise InvalidArgumentError("interior margin must be smaller than the half window")
    g = op.entries.conj().T @ op.entries - np.eye(n)
    lo, hi = interior_margin, n - interior_margin
    return float(np.abs(g[lo:hi, lo:hi]).max())
