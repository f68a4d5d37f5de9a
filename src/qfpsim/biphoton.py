"""Frequency-bin biphoton states: comb sources, joint evolution, quantum walks.

A biphoton amplitude A[m, n] is indexed by (signal bin, idler bin) on the
respective windows.  The idler is counter-propagating in frequency: a comb
pair occupies (l, -l-1) style anticorrelated positions, and the idler-side
mode operator acts with its bin axis reversed relative to the signal
window.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import InvalidArgumentError, RetrievalFailureError
from .eom import ModeOperator, RfDrive, eom_operator
from .lattice import FrequencyLattice
from .rings import mzi_pump_filter


@dataclass(frozen=True)
class BiphotonState:
    """Joint two-photon amplitude over (signal, idler) bin windows."""

    signal_lattice: FrequencyLattice
    idler_lattice: FrequencyLattice
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.signal_lattice.size, self.idler_lattice.size):
            raise InvalidArgumentError("amplitude grid must match the two windows")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def normalized(self) -> "BiphotonState":
        n = self.norm
        if n == 0.0:
            raise InvalidArgumentError("cannot normalize the zero state")
        return BiphotonState(self.signal_lattice, self.idler_lattice,
                             self.amplitudes / n)


def comb_envelope(num_pairs: int, filter_fsr: float, bin_spacing: float,
                  extinction_db: float = 30.0) -> np.ndarray:
    """|beta_l|^2 weights from the interferometric pump filter edge.

    Bin l sits at pi/2 + 0.25 + l * pi * bin_spacing / filter_fsr on the
    filter's sinusoidal transmission, just past its peak, producing the
    slow monotonic roll-off across the comb lines.
    """
    ls = np.arange(num_pairs)
    t = mzi_pump_filter(ls * bin_spacing, filter_fsr, extinction_db,
                        phase_offset=np.pi / 2 + 0.25)
    return np.asarray(t, dtype=float)


def comb_state(signal_lattice: FrequencyLattice, idler_lattice: FrequencyLattice,
               pair_bins, weights=None, phases=None) -> BiphotonState:
    """Energy-anticorrelated comb of bin pairs.

    ``pair_bins`` is a sequence of (signal_bin, idler_bin) tuples; the
    amplitude placed on pair l is sqrt(weights[l]) * exp(i phases[l]),
    normalized at the end.
    """
    pair_bins = list(pair_bins)
    n = len(pair_bins)
    if n == 0:
        raise InvalidArgumentError("comb needs at least one pair")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    ph = np.zeros(n) if phases is None else np.asarray(phases, dtype=float)
    if w.shape != (n,) or ph.shape != (n,):
        raise InvalidArgumentError("weights/phases must match the number of pairs")
    if not np.all((w >= 0) & (w < np.inf)):  # NaN fails both
        raise InvalidArgumentError("weights must be finite and non-negative")
    amps = np.zeros((signal_lattice.size, idler_lattice.size), dtype=complex)
    for (bs, bi), wl, pl in zip(pair_bins, w, ph):
        amps[signal_lattice.index_of(bs), idler_lattice.index_of(bi)] = \
            np.sqrt(wl) * np.exp(1j * pl)
    return BiphotonState(signal_lattice, idler_lattice, amps).normalized()


def reversed_operator(op: ModeOperator) -> ModeOperator:
    """Operator with both bin axes reversed; how a signal-side mode
    transformation reads on the counter-propagating idler axis."""
    return ModeOperator(op.lattice, op.entries[::-1, ::-1].copy())


def _check_windows(state: BiphotonState, signal_op: ModeOperator,
                   idler_op: ModeOperator) -> None:
    if signal_op.lattice != state.signal_lattice or idler_op.lattice != state.idler_lattice:
        raise InvalidArgumentError("operator windows must match the state")


def apply_joint(state: BiphotonState, signal_op: ModeOperator,
                idler_op: ModeOperator) -> BiphotonState:
    """A -> S A I^T: each photon scatters through its own mode operator."""
    _check_windows(state, signal_op, idler_op)
    amps = signal_op.entries @ state.amplitudes @ idler_op.entries.T
    return BiphotonState(state.signal_lattice, state.idler_lattice, amps)


def walk_operators(depth: float, lattice: FrequencyLattice) -> tuple:
    """(signal, idler) operators for both photons crossing one modulator.

    The idler spectrum is counter-propagating, so its operator is the
    bin-reversed copy of the same drive.  Reversal flips the sideband
    phase sign; at the drive phase pi/2 the two photons walk in phase,
    so a flat-phase comb spreads off the energy-matched diagonal while
    an alternating +/-pi/2 comb pattern stays confined.
    """
    op = eom_operator(RfDrive(depth, np.pi / 2), lattice)
    return op, reversed_operator(op)


def ws_idler_phases(pair_bins) -> tuple:
    """Per-pair idler-side spectral phases that make the walk anticorrelated:
    -pi/2, +pi/2 alternating on the interior pairs (endpoints unchanged),
    flipping the effective sign of the relative drive phase."""
    n = len(list(pair_bins))
    phases = [0.0] * n
    for i in range(1, n - 1):
        phases[i] = -np.pi / 2 if i % 2 else np.pi / 2
    return tuple(phases)


def jsi(state: BiphotonState, normalization: str = "max") -> np.ndarray:
    """Joint spectral intensity |A|^2, normalized to unit max or unit sum."""
    inten = np.abs(state.amplitudes) ** 2
    if normalization == "max":
        peak = inten.max()
        return inten / peak if peak > 0 else inten
    if normalization == "integral":
        total = inten.sum()
        return inten / total if total > 0 else inten
    raise InvalidArgumentError(f"unknown normalization {normalization!r}")


def jsi_fidelity(measured: np.ndarray, expected: np.ndarray) -> float:
    """Cosine similarity of the two intensity grids flattened to vectors."""
    a = np.asarray(measured, dtype=float).ravel()
    b = np.asarray(expected, dtype=float).ravel()
    if a.shape != b.shape:
        raise InvalidArgumentError("intensity grids must have the same shape")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise InvalidArgumentError("intensity grids must be non-zero")
    return float(np.dot(a, b) / (na * nb))


def diagonal_weight(state: BiphotonState, pair_bins) -> float:
    """Fraction of joint intensity on the energy-matched comb pairs."""
    inten = jsi(state, "integral")
    kept = sum(inten[state.signal_lattice.index_of(bs),
                     state.idler_lattice.index_of(bi)] for bs, bi in pair_bins)
    return float(kept)


def retrieval_reference_offsets(num_pairs: int) -> np.ndarray:
    """Known phase pattern l * pi/4 used as the second retrieval setting."""
    return np.arange(num_pairs) * np.pi / 4.0


def _retrieval_cost(measurements, base: BiphotonState, pair_bins,
                    signal_op: ModeOperator, idler_op: ModeOperator):
    """Squared mismatch between predicted and measured normalized grids,
    summed over the settings, as a function of the phases of pairs 1..P-1.

    Only the pair amplitudes change from one evaluation to the next, so
    each setting's output S A I^T is the fixed background S A_rest I^T of
    the amplitudes off the pairs plus P outer products of the pairs'
    signal- and idler-operator columns.  Everything but the phases is
    built here once.
    """
    _check_windows(base, signal_op, idler_op)
    rows = [base.signal_lattice.index_of(bs) for bs, _ in pair_bins]
    cols = [base.idler_lattice.index_of(bi) for _, bi in pair_bins]
    if len(set(zip(rows, cols))) < len(pair_bins):
        raise InvalidArgumentError("pair bins must be distinct")
    rest = base.amplitudes.copy()
    rest[rows, cols] = 0.0
    background = signal_op.entries @ rest @ idler_op.entries.T
    signal_cols = signal_op.entries[:, rows] * base.amplitudes[rows, cols]
    idler_rows = idler_op.entries[:, cols].T

    num = len(pair_bins)
    offsets, targets = [], []
    for known, grid in measurements:
        known = np.asarray(known, dtype=float)
        if known.shape != (num,):
            raise InvalidArgumentError("one known offset per pair required")
        grid = np.asarray(grid, dtype=float)
        if grid.shape != background.shape:
            raise InvalidArgumentError("measured grids must match the two windows")
        offsets.append(known)
        targets.append(grid / grid.sum())
    if not targets:
        raise InvalidArgumentError("at least one measured grid required")
    offsets, targets = np.array(offsets), np.array(targets)

    def cost(phis):
        phases = np.concatenate(([0.0], phis)) + offsets
        out = (signal_cols * np.exp(1j * phases)[:, None, :]) @ idler_rows + background
        inten = np.abs(out) ** 2
        total = inten.sum(axis=(1, 2), keepdims=True)
        diff = (inten / np.where(total > 0, total, 1.0) - targets).ravel()
        return float(diff @ diff)

    return cost


def retrieve_phases(measurements, base: BiphotonState, pair_bins,
                    signal_op: ModeOperator, idler_op: ModeOperator,
                    restarts: int = 8, seed: int = 7,
                    tol: float = 1e-4) -> np.ndarray:
    """Spectral phases on the comb pairs from post-mixing intensity grids.

    ``measurements`` is a list of (known_offset_phases, grid) pairs, each
    grid recorded with the known phases added on the pairs.  The first
    pair's phase is the gauge reference (fixed at 0); the rest are fit by
    minimizing the squared mismatch between predicted and measured
    normalized grids with Nelder-Mead over random restarts.  Raises
    RetrievalFailureError when no restart reaches ``tol`` (or the best
    cost is not finite), and InvalidArgumentError when two pairs share
    both bins or the operator windows do not match ``base``.

    A single grid pins the phases only up to joint conjugation (the
    mixing kernel is real up to bin-local phases), so the conjugate set
    fits equally well; a second grid with a non-symmetric known offset
    pattern removes the ambiguity.
    """
    pair_bins = list(pair_bins)
    n = len(pair_bins) - 1
    cost = _retrieval_cost(measurements, base, pair_bins, signal_op, idler_op)
    rng = np.random.default_rng(seed)
    best = None
    for k in range(restarts):
        x0 = np.zeros(n) if k == 0 else rng.uniform(-np.pi, np.pi, n)
        res = minimize(cost, x0, method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-14, "maxiter": 4000})
        if best is None or res.fun < best.fun:
            best = res
    if not best.fun <= tol:
        raise RetrievalFailureError(
            f"best residual {best.fun:.3g} exceeds tolerance {tol:.3g}")
    return np.concatenate(([0.0], np.mod(best.x + np.pi, 2 * np.pi) - np.pi))
