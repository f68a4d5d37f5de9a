"""Single-tone electro-optic phase modulator as a bin-mixing operator.

A modulator driven with instantaneous phase ``depth * sin(Omega t + phase)``
scatters bin n to bin m with amplitude J_{m-n}(depth) * exp(i (m-n) phase),
so an upshift by one bin carries exp(i*phase).  Bessel functions come
from ``scipy.special.jv``, imported on first use so that importing this
module loads only numpy.

The processor runs at one working depth while its phases change, so what
depends on the depth alone is computed once per depth, in bounded
``functools.lru_cache``s: ``truncation_order`` keyed on the depth, and the
real Toeplitz matrix J_{m-n}(depth) keyed on (depth, window size), at
most two of them (the in and out modulators of one setting).  A cached
matrix is handed to every caller, so it is read-only and an RF phase
multiplies it into a new array.  The depths -0.0 and 0.0 are one key to
a cache, so both must give one value: the truncation order is 0 at
either, and the matrix is built at depth + 0.0.

The matrix stores each J_k(depth) below sqrt(tiny) ~ 1.5e-154, tiny the
smallest normal double, as 0: the far tail of the band on a wide window.
The product of two such entries is subnormal, and a matrix product that
meets subnormal numbers takes the CPU's slow path, several times slower.
Every product of two kept entries is normal, and a dropped entry moves
any entry of a product of two modulators by at most about n * sqrt(tiny),
far below the window's TRUNCATION_POWER_TOL.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidArgumentError, OutOfRangeError
from .lattice import FrequencyLattice

BESSEL_MAX_ARGUMENT = 50.0
TRUNCATION_POWER_TOL = 1e-14
# sqrt of the smallest normal double: the product of two numbers at least
# this large is normal
_SQRT_TINY = float(np.sqrt(np.finfo(float).tiny))


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


@functools.lru_cache(maxsize=64)
def truncation_order(depth: float) -> int:
    """Smallest K with sum_{|j|>K} J_j(depth)^2 < TRUNCATION_POWER_TOL.

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
    while tail >= TRUNCATION_POWER_TOL:
        k += 1
        if k >= len(row):
            raise InvalidArgumentError("truncation order not found; depth too large")
        tail -= 2.0 * power[k]
    return k


def check_window_margin(lattice: FrequencyLattice, bins, depth: float) -> None:
    """The window rule: InvalidArgumentError for a bin outside the window,
    OutOfRangeError for one nearer its edge than ``truncation_order(depth)``."""
    margin, nearest = min((min(lattice.index_of(b), lattice.l_max - b), b) for b in bins)
    needed = truncation_order(depth)
    if margin < needed:
        raise OutOfRangeError(
            f"bin {nearest} lies {margin} bins from the window edge; depth "
            f"{depth} needs {needed} (widen the window)")


@dataclass(frozen=True)
class RfDrive:
    """Single-tone RF drive of a phase modulator, at the lattice spacing.

    Attributes:
        depth: modulation depth in radians (>= 0).
        phase: RF phase in radians.
    """

    depth: float
    phase: float = 0.0

    def __post_init__(self):
        if self.depth < 0:
            raise InvalidArgumentError("modulation depth must be non-negative")


@dataclass(frozen=True)
class ModeOperator:
    """Complex matrix over a lattice window, indexed (output bin, input bin)."""

    lattice: FrequencyLattice
    entries: np.ndarray

    def __post_init__(self):
        n = self.lattice.size
        if self.entries.shape != (n, n):
            raise InvalidArgumentError("operator dimensions must match the lattice window")


@functools.lru_cache(maxsize=2)
def _toeplitz(depth: float, n: int) -> np.ndarray:
    """The read-only n x n real Toeplitz matrix T[m, k] = J_{m-k}(depth),
    with J_{-j} = (-1)^j J_j: the modulator at RF phase 0.  Entries below
    _SQRT_TINY are stored as 0 (module docstring)."""
    diff = np.arange(1 - n, n)
    row = bessel_row(n - 1, depth + 0.0)
    row[np.abs(row) < _SQRT_TINY] = 0.0
    sign = np.where((diff < 0) & (np.abs(diff) % 2 == 1), -1.0, 1.0)
    band = row[np.abs(diff)] * sign
    # each row of T is the band read backwards from its own start
    step = band.strides[0]
    out = as_strided(band[n - 1:], (n, n), (step, -step), writeable=False).copy()
    out.setflags(write=False)
    return out


def _phasors(bins: np.ndarray, phase: float) -> np.ndarray:
    """exp(i k phase) for each bin k, to about an ulp.  Rounding k * phase
    would move the angle by up to ulp(k * phase) / 2, 1.4e-14 at k = 64 and
    phase = pi; so phase splits into a 40-bit head, whose products with bins
    below 2^13 are exact, and the tail left over (Dekker, Numer. Math. 18,
    224, 1971)."""
    scaled = 8193.0 * phase  # (2^13 + 1) * phase
    head = scaled - (scaled - phase)
    return np.exp(1j * (bins * head)) * np.exp(1j * (bins * (phase - head)))


def eom_operator(drive: RfDrive, lattice: FrequencyLattice) -> ModeOperator:
    """Mode-mixing operator of a sinusoidally driven phase modulator.

    M[m, n] = J_{m-n}(depth) exp(i (m-n) phase) = (D T D^dag)[m, n], with T
    the real Toeplitz matrix at phase 0 and D the bins' ``_phasors``.  Only
    the finite window truncates the band, which keeps the interior (margin
    ``truncation_order(depth)``) unitary to well below 1e-10.
    """
    d = _phasors(lattice.bins, drive.phase)
    entries = d[:, None] * _toeplitz(drive.depth, lattice.size)
    entries *= d.conj()
    return ModeOperator(lattice, entries)


def unitarity_deficit(op: ModeOperator, interior_margin: int) -> float:
    """max |(M^dag M - I)[m, n]| over bins at least ``interior_margin`` from the edge."""
    n = op.lattice.size
    if interior_margin >= (n - 1) // 2:
        raise InvalidArgumentError("interior margin must be smaller than the half window")
    g = op.entries.conj().T @ op.entries - np.eye(n)
    lo, hi = interior_margin, n - interior_margin
    return float(np.abs(g[lo:hi, lo:hi]).max())
