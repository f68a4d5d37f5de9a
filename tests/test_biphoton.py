"""Biphoton combs, joint quantum walks, and spectral-phase retrieval."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from qfpsim import defaults
from qfpsim.biphoton import (
    BiphotonState,
    _lifted_seed,
    _model_cost,
    _pair_model,
    _phase_tree,
    apply_joint,
    comb_envelope,
    comb_state,
    diagonal_weight,
    jsi,
    jsi_fidelity,
    retrieval_reference_offsets,
    retrieve_phases,
    walk_operators,
    ws_idler_phases,
)
from qfpsim.errors import InvalidArgumentError, RetrievalFailureError
from qfpsim.lattice import make_lattice

LAT = make_lattice(defaults.CENTER_FREQUENCY, defaults.BIN_SPACING, 16)
PAIRS = [(l, -l) for l in range(1, defaults.NUM_COMB_PAIRS + 1)]


def _envelope():
    return comb_envelope(defaults.NUM_COMB_PAIRS, defaults.PUMP_FILTER_FSR,
                         defaults.BIN_SPACING,
                         defaults.PUMP_FILTER_EXTINCTION_DB)


def test_comb_state_is_normalized_and_places_pairs():
    st = comb_state(LAT, LAT, PAIRS, weights=_envelope())
    assert st.norm == pytest.approx(1.0, abs=1e-12)
    for bs, bi in PAIRS:
        assert abs(st.amplitudes[LAT.index_of(bs), LAT.index_of(bi)]) > 0
    # everything else is empty
    total = sum(abs(st.amplitudes[LAT.index_of(bs), LAT.index_of(bi)]) ** 2
                for bs, bi in PAIRS)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_comb_state_validation():
    with pytest.raises(InvalidArgumentError):
        comb_state(LAT, LAT, [])
    with pytest.raises(InvalidArgumentError):
        comb_state(LAT, LAT, PAIRS, weights=[1.0])
    with pytest.raises(InvalidArgumentError):
        comb_state(LAT, LAT, PAIRS, weights=[-1.0] * len(PAIRS))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            comb_state(LAT, LAT, PAIRS, weights=[1.0] * (len(PAIRS) - 1) + [bad])
    with pytest.raises(InvalidArgumentError):
        BiphotonState(LAT, LAT, np.zeros((3, 3)))
    with pytest.raises(InvalidArgumentError):
        BiphotonState(LAT, LAT, np.zeros((LAT.size, LAT.size))).normalized()


def test_envelope_rolls_off_monotonically():
    env = _envelope()
    assert env.shape == (defaults.NUM_COMB_PAIRS,)
    assert np.all(np.diff(env) < 0)
    assert np.all((env > 0) & (env < 1))


def test_idler_walk_operator_is_axis_flip_and_unitary():
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    assert np.allclose(idl.entries, sig.entries[::-1, ::-1])
    # unitary away from the window edges, where hard truncation clips rows
    ident = idl.entries.conj().T @ idl.entries
    core = slice(10, LAT.size - 10)
    assert np.allclose(ident[core, core], np.eye(LAT.size)[core, core],
                       atol=1e-12)


def test_apply_joint_preserves_norm():
    st = comb_state(LAT, LAT, PAIRS, weights=_envelope())
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    out = apply_joint(st, sig, idl)
    assert out.norm == pytest.approx(1.0, abs=1e-12)
    other = make_lattice(defaults.CENTER_FREQUENCY, defaults.BIN_SPACING, 8)
    sig2, idl2 = walk_operators(defaults.WALK_DEPTH, other)
    with pytest.raises(InvalidArgumentError):
        apply_joint(st, sig2, idl2)


def test_walk_dichotomy_frozen_values():
    env = _envelope()
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    corr = apply_joint(comb_state(LAT, LAT, PAIRS, weights=env), sig, idl)
    anti = apply_joint(
        comb_state(LAT, LAT, PAIRS, weights=env,
                   phases=ws_idler_phases(PAIRS)),
        sig, idl)
    d_corr = diagonal_weight(corr, PAIRS)
    d_anti = diagonal_weight(anti, PAIRS)
    assert d_corr == pytest.approx(0.2502, abs=2e-3)
    assert d_anti == pytest.approx(0.7608, abs=2e-3)
    assert d_anti > d_corr + 0.2


def test_ws_idler_phase_patterns():
    alt = ws_idler_phases(PAIRS)
    assert len(alt) == len(PAIRS)
    assert alt[0] == 0.0 and alt[-1] == 0.0
    assert alt[1:-1] == tuple((-np.pi / 2, np.pi / 2)[i % 2] for i in range(len(PAIRS) - 2))
    assert ws_idler_phases([(1, -1), (2, -2)]) == (0.0, 0.0)


def test_jsi_normalizations_and_fidelity():
    st = comb_state(LAT, LAT, PAIRS, weights=_envelope())
    assert jsi(st, "max").max() == pytest.approx(1.0)
    assert jsi(st, "integral").sum() == pytest.approx(1.0)
    with pytest.raises(InvalidArgumentError):
        jsi(st, "trace")
    g = jsi(st, "integral")
    assert jsi_fidelity(g, 3.0 * g) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        jsi_fidelity(g, g[:3, :3])
    with pytest.raises(InvalidArgumentError):
        jsi_fidelity(g, np.zeros_like(g))


def test_single_grid_retrieval_is_refused():
    # one grid fixes each X_pq only up to its own conjugation; fed one grid,
    # the former Nelder-Mead fit returned phases 0.4-2.3 rad off (up to
    # joint conjugation) with the cost below tol on 3 of 6 draws over +-pi
    env = _envelope()
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    base = comb_state(LAT, LAT, PAIRS, weights=env)
    planted = np.array([0.0, 0.1, -0.1, 0.1, -0.1, 0.1])
    grid = jsi(apply_joint(
        comb_state(LAT, LAT, PAIRS, weights=env, phases=planted), sig, idl),
        "integral")
    with pytest.raises(RetrievalFailureError, match="not tied to pair 0"):
        retrieve_phases([(np.zeros(len(PAIRS)), grid)], base, PAIRS, sig, idl)


def _two_grids(planted, env, sig, idl):
    measurements = []
    for offsets in (np.zeros(len(PAIRS)), retrieval_reference_offsets(len(PAIRS))):
        state = comb_state(LAT, LAT, PAIRS, weights=env, phases=planted + offsets)
        measurements.append((offsets, jsi(apply_joint(state, sig, idl), "integral")))
    return measurements


def test_two_setting_retrieval_is_unambiguous():
    env = _envelope()
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    base = comb_state(LAT, LAT, PAIRS, weights=env)
    planted = np.array([0.0, 0.1, -0.1, 0.1, -0.1, 0.1])
    rec = retrieve_phases(_two_grids(planted, env, sig, idl), base, PAIRS, sig, idl)
    assert np.abs(rec - planted).max() < 1e-3


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-np.pi, np.pi), min_size=len(PAIRS) - 1,
                max_size=len(PAIRS) - 1))
def test_two_grid_retrieval_recovers_any_phases(angles):
    env = _envelope()
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    base = comb_state(LAT, LAT, PAIRS, weights=env)
    planted = np.concatenate(([0.0], angles))
    rec = retrieve_phases(_two_grids(planted, env, sig, idl), base, PAIRS, sig, idl)
    assert np.abs(np.angle(np.exp(1j * (rec - planted)))).max() < 1e-6


def test_retrieval_failure_on_inconsistent_data():
    env = _envelope()
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    base = comb_state(LAT, LAT, PAIRS, weights=env)
    zeros, ref = np.zeros(len(PAIRS)), retrieval_reference_offsets(len(PAIRS))
    bogus = np.ones((LAT.size, LAT.size))
    with pytest.raises(RetrievalFailureError, match="exceeds tolerance"):
        retrieve_phases([(zeros, bogus), (ref, bogus)], base, PAIRS, sig, idl)
    with pytest.raises(InvalidArgumentError):
        retrieve_phases([(np.zeros(2), bogus)], base, PAIRS, sig, idl)
    # a single pair has no relative phase to retrieve
    with pytest.raises(InvalidArgumentError, match="at least two pairs"):
        retrieve_phases([(zeros[:1], bogus), (ref[:1], bogus)],
                        comb_state(LAT, LAT, PAIRS[:1]), PAIRS[:1], sig, idl)
    # a pair without amplitude in the base has no phase to retrieve
    hole = comb_state(LAT, LAT, PAIRS, weights=np.where(np.arange(len(PAIRS)) == 2, 0.0, env))
    with pytest.raises(RetrievalFailureError, match=r"pairs \[2\] are not tied"):
        retrieve_phases(_two_grids(zeros, env, sig, idl), hole, PAIRS, sig, idl)
    # non-finite and zero-sum grids fail before any solve
    for value in (np.nan, np.inf, 0.0):
        with pytest.raises(RetrievalFailureError, match="positive sum"):
            retrieve_phases([(zeros, bogus), (ref, np.full_like(bogus, value))],
                            base, PAIRS, sig, idl)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-np.pi, np.pi), min_size=2 * len(PAIRS) - 1,
                max_size=2 * len(PAIRS) - 1),
       st.floats(0.0, 0.5), st.floats(-np.pi, np.pi))
def test_retrieval_cost_matches_joint_evolution(angles, stray, stray_phase):
    # the pair-column model against the full S A I^T evolution, for a base
    # with one amplitude off the pairs (a fixed background)
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    amps = comb_state(LAT, LAT, PAIRS, weights=_envelope()).amplitudes.copy()
    amps[LAT.index_of(2), LAT.index_of(3)] = stray * np.exp(1j * stray_phase)
    base = BiphotonState(LAT, LAT, amps)
    phis = np.asarray(angles[:len(PAIRS) - 1])
    measurements = []
    for known in (np.zeros(len(PAIRS)), np.asarray(angles[len(PAIRS) - 1:])):
        target = comb_state(LAT, LAT, PAIRS, phases=known)
        measurements.append((known, jsi(apply_joint(target, sig, idl), "integral")))

    expected = 0.0
    for known, grid in measurements:
        trial = amps.copy()
        for (bs, bi), ph in zip(PAIRS, np.concatenate(([0.0], phis)) + known):
            trial[LAT.index_of(bs), LAT.index_of(bi)] *= np.exp(1j * ph)
        pred = jsi(apply_joint(BiphotonState(LAT, LAT, trial), sig, idl), "integral")
        expected += np.sum((pred - grid / grid.sum()) ** 2)
    cost = _model_cost(*_pair_model(measurements, base, PAIRS, sig, idl))
    assert cost(phis)[0] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-np.pi, np.pi), min_size=3 * len(PAIRS) - 3,
                max_size=3 * len(PAIRS) - 3),
       st.floats(0.0, 0.5), st.floats(-np.pi, np.pi))
def test_retrieval_gradient_matches_central_differences(angles, stray, stray_phase):
    # grids from other phases than those evaluated, so the cost is far from
    # its minimum, and a base with one amplitude off the pairs
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    amps = comb_state(LAT, LAT, PAIRS, weights=_envelope()).amplitudes.copy()
    amps[LAT.index_of(2), LAT.index_of(3)] = stray * np.exp(1j * stray_phase)
    base = BiphotonState(LAT, LAT, amps)
    num = len(PAIRS)
    planted = np.concatenate(([0.0], angles[:num - 1]))
    phis = np.asarray(angles[num - 1:2 * num - 2])
    known = np.concatenate(([0.0], angles[2 * num - 2:]))
    measurements = []
    for offsets in (np.zeros(num), known):
        target = comb_state(LAT, LAT, PAIRS, phases=planted + offsets)
        measurements.append((offsets, jsi(apply_joint(target, sig, idl), "integral")))
    cost = _model_cost(*_pair_model(measurements, base, PAIRS, sig, idl))
    step = 1e-6
    central = np.array([(cost(phis + step * e)[0] - cost(phis - step * e)[0]) / (2 * step)
                        for e in np.eye(num - 1)])
    # the difference quotient carries about 1e-16 / 1e-6 of rounding
    assert np.abs(cost(phis)[1] - central).max() <= 1e-8


def test_retrieval_polish_beats_nelder_mead_on_noisy_grids():
    # 16 pairs with phases drawn as qwalk draws them (+-0.1), each grid cell
    # scaled by 1 + 0.02 N(0, 1); the polish must end no higher than the
    # former Nelder-Mead run from the same start (which ends 21 % above)
    num = 16
    lat = make_lattice(defaults.CENTER_FREQUENCY, defaults.BIN_SPACING, 24)
    pairs = [(l, -l) for l in range(1, num + 1)]
    env = comb_envelope(num, defaults.PUMP_FILTER_FSR, defaults.BIN_SPACING,
                        defaults.PUMP_FILTER_EXTINCTION_DB)
    sig, idl = walk_operators(defaults.WALK_DEPTH, lat)
    base = comb_state(lat, lat, pairs, weights=env)
    rng = np.random.default_rng(5)
    planted = np.concatenate(([0.0], rng.uniform(-0.1, 0.1, num - 1)))
    measurements = []
    for offsets in (np.zeros(num), retrieval_reference_offsets(num)):
        state = comb_state(lat, lat, pairs, weights=env, phases=planted + offsets)
        grid = jsi(apply_joint(state, sig, idl), "integral")
        measurements.append((offsets, grid * (1 + 0.02 * rng.standard_normal(grid.shape))))
    model = _pair_model(measurements, base, pairs, sig, idl)
    cost = _model_cost(*model)
    signal_cols, idler_rows, _, offsets, targets = model
    seed = _lifted_seed(signal_cols, idler_rows, offsets, targets,
                        *_phase_tree(signal_cols, idler_rows, offsets))
    x0 = seed if cost(seed)[0] < cost(np.zeros(num - 1))[0] else np.zeros(num - 1)
    reference = minimize(lambda x: cost(x)[0], x0, method="Nelder-Mead",
                         options={"xatol": 1e-8, "fatol": 1e-14, "maxiter": 4000})
    rec = retrieve_phases(measurements, base, pairs, sig, idl)
    assert cost(rec[1:])[0] <= reference.fun


def test_retrieval_rejects_duplicate_pairs_and_foreign_windows():
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    base = comb_state(LAT, LAT, PAIRS, weights=_envelope())
    grid = jsi(apply_joint(base, sig, idl), "integral")
    with pytest.raises(InvalidArgumentError):
        retrieve_phases([(np.zeros(len(PAIRS) + 1), grid)], base, PAIRS + [PAIRS[2]],
                        sig, idl)
    other = make_lattice(defaults.CENTER_FREQUENCY, defaults.BIN_SPACING, 8)
    sig2, idl2 = walk_operators(defaults.WALK_DEPTH, other)
    with pytest.raises(InvalidArgumentError):
        retrieve_phases([(np.zeros(len(PAIRS)), grid)], base, PAIRS, sig2, idl2)
