"""Biphoton combs, joint quantum walks, and spectral-phase retrieval."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfpsim import defaults
from qfpsim.biphoton import (
    BiphotonState,
    _retrieval_cost,
    apply_joint,
    comb_envelope,
    comb_state,
    diagonal_weight,
    jsi,
    jsi_fidelity,
    retrieval_reference_offsets,
    retrieve_phases,
    reversed_operator,
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
    with pytest.raises(InvalidArgumentError):
        BiphotonState(LAT, LAT, np.zeros((3, 3)))
    with pytest.raises(InvalidArgumentError):
        BiphotonState(LAT, LAT, np.zeros((LAT.size, LAT.size))).normalized()


def test_envelope_rolls_off_monotonically():
    env = _envelope()
    assert env.shape == (defaults.NUM_COMB_PAIRS,)
    assert np.all(np.diff(env) < 0)
    assert np.all((env > 0) & (env < 1))


def test_reversed_operator_is_axis_flip_and_unitary():
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    assert np.allclose(idl.entries, sig.entries[::-1, ::-1])
    assert np.allclose(reversed_operator(idl).entries, sig.entries)
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
                   phases=ws_idler_phases(PAIRS, "anticorrelated")),
        sig, idl)
    d_corr = diagonal_weight(corr, PAIRS)
    d_anti = diagonal_weight(anti, PAIRS)
    assert d_corr == pytest.approx(0.2502, abs=2e-3)
    assert d_anti == pytest.approx(0.7608, abs=2e-3)
    assert d_anti > d_corr + 0.2


def test_ws_idler_phase_patterns():
    flat = ws_idler_phases(PAIRS, "correlated")
    assert flat == tuple([0.0] * len(PAIRS))
    alt = ws_idler_phases(PAIRS, "anticorrelated")
    assert alt[0] == 0.0 and alt[-1] == 0.0
    interior = alt[1:-1]
    assert np.allclose(np.abs(interior), np.pi / 2)
    assert np.all(np.diff(np.sign(interior)) != 0)
    with pytest.raises(InvalidArgumentError):
        ws_idler_phases(PAIRS, "diagonal")


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


def test_single_grid_retrieval_recovers_up_to_conjugation():
    env = _envelope()
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    base = comb_state(LAT, LAT, PAIRS, weights=env)
    planted = np.array([0.0, 0.1, -0.1, 0.1, -0.1, 0.1])
    grid = jsi(apply_joint(
        comb_state(LAT, LAT, PAIRS, weights=env, phases=planted), sig, idl),
        "integral")
    rec = retrieve_phases(grid, base, PAIRS, sig, idl)
    err_direct = np.abs(rec - planted).max()
    err_conj = np.abs(rec + planted).max()
    assert min(err_direct, err_conj) < 1e-3


def test_two_setting_retrieval_is_unambiguous():
    env = _envelope()
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    base = comb_state(LAT, LAT, PAIRS, weights=env)
    planted = np.array([0.0, 0.1, -0.1, 0.1, -0.1, 0.1])
    ref = retrieval_reference_offsets(len(PAIRS))
    measurements = []
    for offsets in (np.zeros(len(PAIRS)), ref):
        st = comb_state(LAT, LAT, PAIRS, weights=env, phases=planted + offsets)
        measurements.append((offsets, jsi(apply_joint(st, sig, idl),
                                          "integral")))
    rec = retrieve_phases(measurements, base, PAIRS, sig, idl)
    assert np.abs(rec - planted).max() < 1e-3


def test_retrieval_failure_on_inconsistent_data():
    env = _envelope()
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    base = comb_state(LAT, LAT, PAIRS, weights=env)
    bogus = np.ones((LAT.size, LAT.size))
    with pytest.raises(RetrievalFailureError):
        retrieve_phases(bogus, base, PAIRS, sig, idl, restarts=1)
    with pytest.raises(InvalidArgumentError):
        retrieve_phases([(np.zeros(2), bogus)], base, PAIRS, sig, idl)


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
    cost = _retrieval_cost(measurements, base, PAIRS, sig, idl)
    assert cost(phis) == pytest.approx(expected, abs=1e-12)


def test_retrieval_rejects_duplicate_pairs_and_foreign_windows():
    sig, idl = walk_operators(defaults.WALK_DEPTH, LAT)
    base = comb_state(LAT, LAT, PAIRS, weights=_envelope())
    grid = jsi(apply_joint(base, sig, idl), "integral")
    with pytest.raises(InvalidArgumentError):
        retrieve_phases(grid, base, PAIRS + [PAIRS[2]], sig, idl)
    other = make_lattice(defaults.CENTER_FREQUENCY, defaults.BIN_SPACING, 8)
    sig2, idl2 = walk_operators(defaults.WALK_DEPTH, other)
    with pytest.raises(InvalidArgumentError):
        retrieve_phases(grid, base, PAIRS, sig2, idl2)
