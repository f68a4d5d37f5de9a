"""Two-qubit tomography: projectors, Bell fringes, MLE reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfpsim.eom import bessel_row
from qfpsim.errors import InvalidArgumentError
from qfpsim.tomo import (
    BASIS_BIN0,
    BASIS_BIN1,
    BASIS_SUPERPOSITION,
    MeasurementSetting,
    bell_fringe,
    canonical_settings,
    carve_bell_state,
    fit_visibility,
    joint_projector,
    mle_reconstruct,
    projector,
    purity,
    simulate_counts,
    state_fidelity,
    superposition_efficiency,
)


def test_projectors_and_settings():
    p0 = projector(MeasurementSetting(BASIS_BIN0))
    p1 = projector(MeasurementSetting(BASIS_BIN1))
    assert np.allclose(p0 + p1, np.eye(2))
    ps = projector(MeasurementSetting(BASIS_SUPERPOSITION, 0.0))
    eta = superposition_efficiency() ** 2
    assert 0 < eta < 1
    assert np.trace(ps).real == pytest.approx(eta, abs=1e-12)
    # rank-1 and PSD
    w = np.linalg.eigvalsh(ps)
    assert w.min() >= -1e-12 and w.max() == pytest.approx(eta, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        MeasurementSetting("diagonal")
    settings = canonical_settings()
    assert len(settings) == 16
    jp = joint_projector(settings[0])
    assert jp.shape == (4, 4)


def test_superposition_efficiency_matches_bessel_product():
    row = bessel_row(1, 0.8169)
    assert superposition_efficiency(0.8169) == pytest.approx(
        2.0 * row[0] * row[1], abs=1e-15)


def test_carve_bell_state_properties():
    rho = carve_bell_state(np.inf)
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)
    rho = carve_bell_state(13.5, bell_phase=0.3)
    p = 10 ** (-13.5 / 10)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert purity(rho) == pytest.approx(
        (1 - p) ** 2 + 2 * p * (1 - p) / 4 + p**2 / 4, abs=1e-9)
    with pytest.raises(InvalidArgumentError):
        carve_bell_state(-1.0)


def test_fringe_visibility_equals_one_minus_noise():
    p = 10 ** (-13.5 / 10)
    rho = carve_bell_state(13.5)
    phis = np.linspace(0, 2 * np.pi, 41)
    fringe = bell_fringe(rho, phis)
    v = (fringe.max() - fringe.min()) / (fringe.max() + fringe.min())
    assert v == pytest.approx((1 - p) / (1 - p + p), abs=1e-3)
    rng = np.random.default_rng(9)
    counts = rng.poisson(1e6 * fringe).astype(float)
    fit = fit_visibility(phis, counts)
    assert fit.visibility == pytest.approx(1 - p, abs=5e-3)
    assert fit.violates_classical_bound
    assert fit.violation_significance > 5


def test_fit_visibility_validation_and_sign_handling():
    phis = np.linspace(0, 2 * np.pi, 21)
    counts = 100.0 * (1.0 - 0.9 * np.cos(phis))
    fit = fit_visibility(phis, counts)
    assert fit.visibility == pytest.approx(0.9, abs=1e-6)
    assert abs(abs(fit.phase) - np.pi) < 1e-6
    with pytest.raises(InvalidArgumentError):
        fit_visibility(phis[:4], counts[:4])


def test_fit_visibility_sigma_is_finite_on_noiseless_fringe_at_zero_phase():
    phis = np.linspace(0, 2 * np.pi, 13)
    counts = 1e5 * (1.0 + 0.93 * np.cos(phis))
    fit = fit_visibility(phis, counts)
    assert fit.visibility == pytest.approx(0.93, abs=1e-9)
    assert abs(fit.phase) < 1e-9
    assert np.isfinite(fit.visibility_sigma) and 0 < fit.visibility_sigma < 1e-2


def test_mle_gradient_matches_finite_differences():
    from qfpsim.tomo import _t_from_params

    rho = carve_bell_state(13.5, 0.4)
    records = simulate_counts(rho, 1e4)
    # rebuild the internal objective through the public API path
    import qfpsim.tomo as tomo

    pis = np.array([tomo.joint_projector((r.setting_a, r.setting_b))
                    for r in records])
    counts = np.array([r.counts for r in records])
    shots = np.array([r.shots for r in records])

    def nll(params):
        t = _t_from_params(params)
        g = t.conj().T @ t
        rho_t = g / np.trace(g).real
        mu = shots * np.real(np.einsum("kij,ji->k", pis, rho_t))
        mu = np.maximum(mu, 1e-12)
        return float(np.sum(mu - counts * np.log(mu)))

    rng = np.random.default_rng(5)
    x = rng.normal(scale=0.4, size=16)
    # analytic gradient via the optimizer's internal callable
    recs = records
    res = tomo.mle_reconstruct(recs, restarts=0)
    assert res.shape == (4, 4)
    # finite-difference check of the closed-form gradient used inside
    eps = 1e-6
    t = _t_from_params(x)
    g = t.conj().T @ t
    trg = np.trace(g).real
    rho_t = g / trg
    mu = shots * np.real(np.einsum("kij,ji->k", pis, rho_t))
    mu = np.maximum(mu, 1e-12)
    w = (1.0 - counts / mu) * shots
    drho = np.einsum("k,kij->ij", w, pis)
    inner = np.trace(rho_t @ drho).real
    grad_t = 2.0 * (t @ drho - inner * t) / trg
    grad = np.zeros(16)
    grad[:4] = grad_t.diagonal().real
    k = 4
    for i in range(1, 4):
        for j in range(i):
            grad[k], grad[k + 1] = grad_t[i, j].real, grad_t[i, j].imag
            k += 2
    num = np.array([(nll(x + eps * e) - nll(x - eps * e)) / (2 * eps)
                    for e in np.eye(16)])
    assert np.abs(grad - num).max() < 1e-4 * max(1.0, np.abs(num).max())


def test_mle_exact_on_expected_counts():
    rho = carve_bell_state(13.5, bell_phase=0.25)
    records = simulate_counts(rho, 1e5)
    est = mle_reconstruct(records, restarts=0)
    assert state_fidelity(est, rho) == pytest.approx(1.0, abs=1e-6)


def test_mle_monte_carlo_is_close():
    rho = carve_bell_state(13.5)
    records = simulate_counts(rho, 1e4, rng=np.random.default_rng(21))
    est = mle_reconstruct(records, restarts=0)
    assert state_fidelity(est, rho) > 0.97


def test_simulate_counts_modes_and_accidentals():
    rho = carve_bell_state(np.inf)
    exact = simulate_counts(rho, 1e4, accidental_fraction=1e-3)
    assert all(r.accidental == pytest.approx(10.0) for r in exact)
    a = simulate_counts(rho, 1e4, rng=np.random.default_rng(2))
    b = simulate_counts(rho, 1e4, rng=np.random.default_rng(2))
    assert [r.counts for r in a] == [r.counts for r in b]


def test_fidelity_and_purity_basics():
    rho = carve_bell_state(np.inf)
    assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    assert purity(rho) == pytest.approx(1.0, abs=1e-10)
    mixed = np.eye(4) / 4.0
    assert state_fidelity(rho, mixed) == pytest.approx(0.25, abs=1e-10)
    assert purity(mixed) == pytest.approx(0.25, abs=1e-12)


def _density(parts):
    g = parts[0] + 1j * parts[1]
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


_GINIBRE = arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(_GINIBRE.filter(lambda p: np.abs(p).sum() > 1e-3),
       _GINIBRE.filter(lambda p: np.abs(p).sum() > 1e-3))
def test_fidelity_bounded_by_one(a, b):
    # rho = G G^dagger / Tr, G complex 4x4
    rho, sigma = _density(a), _density(b)
    assert 0.0 <= state_fidelity(rho, sigma) <= 1.0
    assert 1.0 - 1e-12 <= state_fidelity(rho, rho) <= 1.0


def test_density_validation():
    with pytest.raises(InvalidArgumentError):
        purity(np.eye(3) / 3.0)
    with pytest.raises(InvalidArgumentError):
        purity(np.eye(4))
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(InvalidArgumentError):
        purity(bad)
    with pytest.raises(InvalidArgumentError):
        mle_reconstruct([])
