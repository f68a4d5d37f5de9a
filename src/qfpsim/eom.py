"""Single-tone electro-optic phase modulator as a bin-mixing operator.

A modulator driven with instantaneous phase ``depth * sin(Omega t + phase)``
scatters bin n to bin m with amplitude J_{m-n}(depth) * exp(i (m-n) phase),
so an upshift by one bin carries exp(i*phase).  Bessel rows come from
Miller's backward recurrence (``bessel_row``) in plain Python and numpy,
so that no command loads scipy.

The processor runs at one working depth while its phases change, so what
depends on the depth alone is computed once per depth, in bounded
``functools.lru_cache``s: one read-only Bessel row keyed on the depth,
which ``truncation_order``, the closed form's sums (``qfp._bessel_sums``)
and the real Toeplitz matrix J_{m-n}(depth) slice, that matrix keyed on
(depth, window size); at most two rows and two matrices (the in and out
modulators of one setting).  A cached array is handed to every caller,
so it is read-only and an RF phase multiplies the matrix into a new
array.  The depths -0.0 and 0.0 are one key to a cache, so both must
give one value: the row is evaluated at depth + 0.0.

The matrix stores each J_k(depth) below sqrt(tiny) ~ 1.5e-154, tiny the
smallest normal double, as 0: the far tail of the band on a wide window.
The product of two such entries is subnormal, and a matrix product that
meets subnormal numbers takes the CPU's slow path, several times slower.
Every product of two kept entries is normal, and a dropped entry moves
any entry of a product of two modulators by at most about n * sqrt(tiny),
far below the window's TRUNCATION_POWER_TOL.
"""

import functools
import math
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


# Miller's recurrence starts at the first order at which the bound
# |J_k(x)| <= (|x|/2)^k / k! falls below _START_BOUND (an order far past
# |x| for every |x| <= BESSEL_MAX_ARGUMENT): far enough out that its
# relative error at every order above sqrt(tiny) is about
# (_START_BOUND / sqrt(tiny))^2, and that every order past it may be 0
_START_BOUND = _SQRT_TINY * 1e-17
_LN_START_BOUND = math.log(_START_BOUND)
# the value seeded at the start order: the row grows by at most about
# 1 / J_start toward order 0, so it stays finite without rescaling
_MILLER_SEED = 1e-100


def _log_start_bound(k: float, ax: float) -> float:
    """ln((ax/2)^k / k!)."""
    return k * math.log(ax / 2.0) - math.lgamma(k + 1.0)


def _start_order(ax: float) -> int:
    """The first order k with (ax/2)^k / k! < _START_BOUND, for
    2 _START_BOUND <= ax <= BESSEL_MAX_ARGUMENT.

    By Stirling, k (1 + ln(ax/2k)) = -ln _START_BOUND = t, whose root is
    k = t / W(2t / (e ax)), W the Lambert function, here its two leading
    terms (2t / (e ax) > e in that range).  Two Newton steps on the exact
    bound, with ln(k + 1/2) for the derivative of ln k!, land within about
    1e-3 of its root, and the checks at the end settle the order.
    """
    t = -_LN_START_BOUND
    z = math.log(2.0 * t / (math.e * ax))
    k = t / (z - math.log(z))
    for _ in range(2):
        k -= (_log_start_bound(k, ax) + t) / (math.log(ax / 2.0) - math.log(k + 0.5))
    n = math.ceil(k)
    while _log_start_bound(n - 1, ax) < _LN_START_BOUND:
        n -= 1
    while _log_start_bound(n, ax) >= _LN_START_BOUND:
        n += 1
    return n


def bessel_row(max_order: int, argument: float) -> np.ndarray:
    """J_0..J_max_order(argument), a new array, by Miller's backward recurrence.

    J_{k-1} = (2k/x) J_k - J_{k+1} runs down from J_{N+1} = 0 and a seed
    at the start order N (``_start_order``), and the row is normalised by
    J_0 + 2 sum_k J_2k = 1 (DLMF 10.12.4).  Orders past N are 0; every
    one of them lies below sqrt(tiny) * 1e-17.  A negative argument takes
    J_k(-x) = (-1)^k J_k(x).  Below 2 _START_BOUND, where the recurrence
    would start at order 1 and 2/x can overflow, the row is its closed
    form [1, x/2].

    Raises:
        InvalidArgumentError: if |argument| exceeds the validated range.
    """
    ax = abs(argument)
    if ax > BESSEL_MAX_ARGUMENT:
        raise InvalidArgumentError(
            f"|argument| = {ax} exceeds validated range {BESSEL_MAX_ARGUMENT}")
    out = np.zeros(max_order + 1)
    if ax < 2.0 * _START_BOUND:
        out[0] = 1.0
        out[1:2] = argument / 2.0
        return out
    n = _start_order(ax)
    values = [0.0] * (n + 1)
    values[n] = after = now = _MILLER_SEED
    for k in range(n, 0, -1):
        after, now = now, 2.0 * k / ax * now - after
        values[k - 1] = now
    row = np.fromiter(values, float, n + 1)
    row /= 2.0 * math.fsum(values[::2]) - values[0]
    if argument < 0.0:
        row[1::2] *= -1.0
    m = min(n, max_order) + 1
    out[:m] = row[:m]
    return out


# every Bessel row starts at or below this order (the start order grows
# with |x|), so a row this long holds every value that is not 0
_ROW_ORDER = _start_order(BESSEL_MAX_ARGUMENT)


@functools.lru_cache(maxsize=2)
def _depth_row(depth: float) -> np.ndarray:
    """The read-only Bessel row of depth + 0.0 up to _ROW_ORDER, once per
    depth; the per-depth values cached from it keep their own caches, so
    two rows (the in and out modulators of one setting) are enough."""
    row = bessel_row(_ROW_ORDER, depth + 0.0)
    row.setflags(write=False)
    return row


@functools.lru_cache(maxsize=64)
def truncation_order(depth: float) -> int:
    """Smallest K with sum_{|j|>K} J_j(depth)^2 < TRUNCATION_POWER_TOL.

    Used as the interior guard margin: bins farther than K from the window
    edge see the operator as rigorously unitary.  Each tail is summed from
    the far end of the row, so it is accurate to its last few orders; a
    tail taken as 1 minus the inner orders carries an absolute error of
    about eps, which near TRUNCATION_POWER_TOL moves K by one when the
    row's last ulp changes.
    """
    power = _depth_row(depth) ** 2
    tail = 2.0 * np.cumsum(power[:0:-1])[::-1]  # tail[k] = 2 sum_{j>k} J_j^2
    return int(np.count_nonzero(tail >= TRUNCATION_POWER_TOL))


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
    row = np.zeros(n)
    kept = _depth_row(depth)[:n]
    row[:len(kept)] = np.where(np.abs(kept) < _SQRT_TINY, 0.0, kept)
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
