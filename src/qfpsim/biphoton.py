"""Frequency-bin biphoton states: comb sources, joint evolution, quantum walks.

A biphoton amplitude A[m, n] is indexed by (signal bin, idler bin) on the
respective windows.  The idler is counter-propagating in frequency: a comb
pair occupies (l, -l-1) style anticorrelated positions, and the idler-side
mode operator acts with its bin axis reversed relative to the signal
window.
"""

from dataclasses import dataclass, field

import numpy as np

from ._solvers import minimize
from .errors import InvalidArgumentError, PhysicsError
from .eom import ModeOperator, RfDrive, eom_operator
from .lattice import FrequencyLattice
from .rings import mzi_pump_filter, reduce_phase


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
                  extinction_db: float) -> np.ndarray:
    """|beta_l|^2 weights from the interferometric pump filter edge.

    Bin l sits at pi/2 + 0.25 + l * pi * bin_spacing / filter_fsr on the
    filter's sinusoidal transmission, just past its peak, producing the
    slow monotonic roll-off across the comb lines.
    """
    with np.errstate(over="ignore"):  # the filter refuses a phase that overflows
        offsets = np.arange(num_pairs) * bin_spacing
    t = mzi_pump_filter(offsets, filter_fsr, extinction_db, phase_offset=np.pi / 2 + 0.25)
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
    return op, ModeOperator(lattice, op.entries[::-1, ::-1].copy())


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


# Largest real design (rows x unknowns) of the lifted seed, 256 MiB: every window
# fits at the default walk_depth, a qwalk run at the bound peaks below 800 MB, and
# a deep walk over many pairs (25 GiB at walk_depth 50 and 184 pairs) is refused.
LIFTED_MAX_SIZE = 2 ** 25
# Relative size below which a cell, an entry of X or an offset spread
# tells the seed nothing it needs: what it leaves out moves the seed by
# about this much, and the polish on the full cost removes that.
_FLOOR = np.sqrt(np.finfo(float).eps)
# Largest polished cost ``retrieve_phases`` accepts.
RETRIEVAL_TOL = 1e-4
# Iteration bound of the gradient polish, which ends a slow polish on noisy
# grids: at 64 pairs with 2 % noise on the cells, polishes from the lifted
# seed took 3,709 to 7,367 iterations to converge, and stopping them at 1000
# left their cost within 0.12 % of the converged one.
POLISH_MAXITER = 1000


def _pair_model(measurements, base: BiphotonState, pair_bins,
                signal_op: ModeOperator, idler_op: ModeOperator):
    """The retrieval model, built once: ``base`` must hold amplitude on its
    pairs alone, so each setting's output S A I^T is the sum of P outer
    products of the pairs' signal- and idler-operator columns.

    Returns (signal_cols, idler_rows, offsets, targets): the n_s x P and
    P x n_i pair columns, the K x P known offsets and the K measured grids
    normalized to unit sum.
    """
    _check_windows(base, signal_op, idler_op)
    rows = [base.signal_lattice.index_of(bs) for bs, _ in pair_bins]
    cols = [base.idler_lattice.index_of(bi) for _, bi in pair_bins]
    if len(set(zip(rows, cols))) < len(pair_bins):
        raise InvalidArgumentError("pair bins must be distinct")
    if np.count_nonzero(base.amplitudes) > np.count_nonzero(base.amplitudes[rows, cols]):
        raise InvalidArgumentError("the base state has amplitude off its pairs")
    signal_cols = signal_op.entries[:, rows] * base.amplitudes[rows, cols]
    idler_rows = idler_op.entries[:, cols].T

    num = len(pair_bins)
    offsets, targets = [], []
    for known, grid in measurements:
        known = np.asarray(known, dtype=float)
        if known.shape != (num,):
            raise InvalidArgumentError("one known offset per pair required")
        grid = np.asarray(grid, dtype=float)
        if grid.shape != base.amplitudes.shape:
            raise InvalidArgumentError("measured grids must match the two windows")
        total = grid.sum()
        if not (np.isfinite(total) and total > 0):
            raise PhysicsError(
                f"measured grid must be finite with a positive sum, got sum {total}")
        offsets.append(known)
        targets.append(grid / total)
    if not targets:
        raise InvalidArgumentError("at least one measured grid required")
    return signal_cols, idler_rows, np.array(offsets), np.array(targets)


def _model_cost(signal_cols, idler_rows, offsets, targets):
    """Squared mismatch between predicted and measured normalized grids,
    summed over the settings, and its gradient, as a function of the
    phases of pairs 1..P-1.

    With out = sum_p e^{i phi_p} s_p r_p^T, its sum S of |out|^2 and
    diff = |out|^2 / S - target, the derivative of the cost with respect to
    |out|^2 is w = 2 (diff - <diff, |out|^2 / S>) / S, so the gradient is
    d/d phi_p = -2 Im(e^{i phi_p} s_p^T (w o conj(out)) r_p), summed over the
    settings: one matmul per setting and a column sum.
    """

    def cost(phis):
        rotation = np.exp(1j * (np.concatenate(([0.0], phis)) + offsets))[:, None, :]
        out = (signal_cols * rotation) @ idler_rows
        norm = np.abs(out) ** 2
        total = norm.sum(axis=(1, 2), keepdims=True)
        total = np.where(total > 0, total, 1.0)
        norm /= total
        diff = norm - targets
        flat = diff.ravel()
        value = float(flat @ flat)
        # in place from here: a K x n_s x n_i array less at each step
        norm *= diff
        diff -= norm.sum(axis=(1, 2), keepdims=True)
        diff *= 2.0 / total
        np.conjugate(out, out=out)
        out *= diff
        reach = np.sum(signal_cols * (out @ idler_rows.T), axis=1)
        grad = -2.0 * np.sum((rotation[:, 0, :] * reach).imag, axis=0)
        return value, grad[1:]

    return cost


def _phase_tree(signal_cols, idler_rows, offsets):
    """Order in which to read the pair phases off the lifted X = z z^H.

    An entry X_pq is reached when the pairs' columns overlap by more than
    _FLOOR of their norms, and determined when, besides, the known offset
    differences o_p - o_q of two settings differ by other than a multiple
    of pi (the mixing kernel is real up to bin-local phases, so each
    setting fixes one real combination of the entry).  Returns the
    reached entries (p < q) and the (p, q) edges of the spanning tree from
    pair 0 that maximizes its weakest edge (overlap times the offsets'
    spread), or raises PhysicsError when the determined entries leave
    some pair unconnected to pair 0.
    """
    amp_s, amp_i = np.abs(signal_cols), np.abs(idler_rows)
    overlap = (amp_s.T @ amp_s) * (amp_i @ amp_i.T)
    norms = np.sqrt(np.diag(overlap))
    overlap /= np.maximum(np.outer(norms, norms), np.finfo(float).tiny)
    diff = offsets[:, :, None] - offsets[:, None, :]
    spread = np.abs(np.sin(diff - diff[0])).max(axis=0)
    weight = np.where((overlap > _FLOOR) & (spread > _FLOOR), overlap * spread, 0.0)

    num = len(weight)
    done = np.zeros(num, dtype=bool)
    done[0] = True
    best, via, edges = weight[0].copy(), np.zeros(num, dtype=int), []
    for _ in range(num - 1):
        open_best = np.where(done, 0.0, best)
        q = int(np.argmax(open_best))
        if open_best[q] <= 0.0:
            raise PhysicsError(
                f"pairs {sorted(np.flatnonzero(~done).tolist())} are not tied to pair 0 "
                "by any entry the settings determine")
        edges.append((int(via[q]), q))
        done[q] = True
        better = weight[q] > best
        best[better], via[better] = weight[q][better], q
    return np.argwhere(np.triu(overlap > _FLOOR, 1)), edges


def _lifted_seed(signal_cols, idler_rows, offsets, targets, entries, edges):
    """Pair phases from one linear least-squares solve for X = z z^H.

    Each normalized grid cell is linear in X: s_k t_k = sum_p |a_p|^2 |b_p|^2
    + sum_{p<q} 2 Re(e^{i(o_kp - o_kq)} X_pq a_p conj(a_q) b_p conj(b_q)),
    with the diagonal of X fixed to 1 and one unknown scale s_k per grid.
    The system holds only the reached ``entries`` and the cells whose diagonal
    term, which bounds the cell by Cauchy-Schwarz, is above _FLOOR of its
    largest value, so its size does not grow with the window; one above
    LIFTED_MAX_SIZE doubles raises PhysicsError.  Phases are read along
    ``edges`` from pair 0, since arg X_pq = phi_p - phi_q.
    """
    diagonal = np.abs(signal_cols) ** 2 @ np.abs(idler_rows) ** 2
    rows, cols = np.nonzero(diagonal >= _FLOOR * diagonal.max())
    num_grids, num_entries = len(targets), len(entries)
    size = num_grids * len(rows) * (2 * num_entries + num_grids)
    if size > LIFTED_MAX_SIZE:
        raise PhysicsError(f"lifted design of {size / 2**17:.0f} MiB exceeds its bound of "
                           f"{LIFTED_MAX_SIZE / 2**17:.0f} MiB; use fewer pairs or less depth")
    p, q = entries.T
    a, b = signal_cols[rows], idler_rows[:, cols].T
    kernel = 2.0 * a[:, p] * a[:, q].conj() * b[:, p] * b[:, q].conj()
    design = np.zeros((num_grids, len(rows), 2 * num_entries + num_grids))
    for k, phase in enumerate(np.exp(1j * (offsets[:, p] - offsets[:, q]))):
        coef = phase * kernel
        design[k, :, :num_entries] = coef.real
        design[k, :, num_entries:2 * num_entries] = -coef.imag
        design[k, :, 2 * num_entries + k] = -targets[k][rows, cols]
    del kernel, coef  # freed before the solver copies the design
    rhs = -np.tile(diagonal[rows, cols], num_grids)
    x = np.linalg.lstsq(design.reshape(-1, design.shape[2]), rhs, rcond=None)[0]

    lifted = np.zeros((signal_cols.shape[1],) * 2, dtype=complex)
    lifted[p, q] = x[:num_entries] + 1j * x[num_entries:2 * num_entries]
    lifted[q, p] = lifted[p, q].conj()
    phases = np.zeros(len(lifted))
    for src, dst in edges:
        phases[dst] = phases[src] - np.angle(lifted[src, dst])
    return phases[1:]


def retrieve_phases(measurements, base: BiphotonState, pair_bins,
                    signal_op: ModeOperator, idler_op: ModeOperator) -> np.ndarray:
    """Spectral phases on the comb pairs from post-mixing intensity grids.

    ``measurements`` is a list of (known_offset_phases, grid) pairs, each
    grid recorded with the known phases added on the pairs.  The first
    pair's phase is the gauge reference (fixed at 0).

    Each normalized grid cell is linear in the lifted X = z z^H of the
    pair phasors z_p = e^{i phi_p} (PhaseLift: Candes, Strohmer and
    Voroninski, CPAM 66, 1241, 2013), so one least-squares solve gives X
    and the phases are read off its determined entries along a spanning
    tree from pair 0 (angular synchronisation: Singer, ACHA 30, 20, 2011).
    ``base`` holds amplitude on the pairs alone, so the lifted seed and
    the polish model one state.  One BFGS run on the squared mismatch
    between predicted and measured normalized grids, with its analytic
    gradient, then polishes the seed; an exact seed ends it at the first
    evaluation, and POLISH_MAXITER ends a polish that does not converge.

    A single grid fixes each X_pq only up to its conjugate (the mixing
    kernel is real up to bin-local phases), so X_pq is determined only
    where a second setting's known offset difference o_p - o_q is not that
    of the first plus a multiple of pi.  Raises PhysicsError when those
    entries leave a pair unconnected to pair 0 (a single grid always
    does), when a grid is not finite or sums to zero, when the lifted
    design exceeds LIFTED_MAX_SIZE, or when the polished cost exceeds
    RETRIEVAL_TOL (or is not finite); raises InvalidArgumentError when
    there are fewer than two pairs, when two pairs share both bins, when
    ``base`` has amplitude off its pairs or when the operator windows do
    not match ``base``.
    """
    pair_bins = list(pair_bins)
    if len(pair_bins) < 2:
        raise InvalidArgumentError("phase retrieval needs at least two pairs")
    model = _pair_model(measurements, base, pair_bins, signal_op, idler_op)
    signal_cols, idler_rows, offsets, targets = model
    cost = _model_cost(*model)
    entries, edges = _phase_tree(signal_cols, idler_rows, offsets)
    seed = _lifted_seed(signal_cols, idler_rows, offsets, targets, entries, edges)
    best = minimize(cost, seed, options={"ftol": 1e-15, "gtol": 1e-12,
                                         "maxiter": POLISH_MAXITER})
    if not best.fun <= RETRIEVAL_TOL:
        raise PhysicsError(
            f"residual {best.fun:.3g} exceeds tolerance {RETRIEVAL_TOL:.3g}")
    return np.array([0.0] + [reduce_phase(x) for x in best.x])
