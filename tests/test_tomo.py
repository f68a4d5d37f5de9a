"""Two-qubit tomography: projectors, Bell fringes, MLE reconstruction."""

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfpsim import tomo
from qfpsim.eom import bessel_row
from qfpsim.errors import FitFailureError, InvalidArgumentError
from qfpsim.tomo import (
    MLE_GAP_TOL,
    bell_fringe,
    carve_bell_state,
    fit_visibility,
    mle_reconstruct,
    purity,
    simulate_counts,
    state_fidelity,
    _canonical_projectors,
    _negloglike_and_grad,
    _rates,
    _superposition,
    superposition_efficiency,
)


@dataclass(frozen=True)
class _Setting:
    """One photon's analyzer, spelled out: a bin basis, or a superposition
    basis with relative bin phase phi."""

    basis: str
    phi: float = 0.0


def _reference_projector(setting: _Setting) -> np.ndarray:
    """The single-photon POVM element of one setting, built on its own."""
    if setting.basis == "bin0":
        return np.diag([1.0, 0.0]).astype(complex)
    if setting.basis == "bin1":
        return np.diag([0.0, 1.0]).astype(complex)
    v = np.array([1.0, np.exp(1j * setting.phi)]) / np.sqrt(2.0)
    eta = superposition_efficiency() ** 2
    return eta * np.outer(v, v.conj())


def _reference_stack(pairs) -> np.ndarray:
    """Joint POVM elements, one Kronecker product per setting pair."""
    return np.array([np.kron(_reference_projector(a), _reference_projector(b))
                     for a, b in pairs])


_SINGLES = (_Setting("bin0"), _Setting("bin1"), _Setting("superposition", 0.0),
            _Setting("superposition", np.pi / 2.0))


def test_projectors_and_settings():
    # the canonical stack against the setting-by-setting construction
    pis = _canonical_projectors()
    ref = _reference_stack((a, b) for a in _SINGLES for b in _SINGLES)
    assert pis.shape == (16, 4, 4) and pis.dtype == ref.dtype
    assert pis.tobytes() == ref.tobytes()  # bit for bit
    # the four bin-basis pairs resolve the identity
    assert np.allclose(pis[[0, 1, 4, 5]].sum(axis=0), np.eye(4))
    # the superposition analyzer is a lossy rank-1 projector
    eta = superposition_efficiency() ** 2
    assert 0 < eta < 1
    for phi in (0.0, 0.7, np.pi / 2.0):
        ps = _superposition(phi)
        assert np.array_equal(ps, _reference_projector(_Setting("superposition", phi)))
        assert np.trace(ps).real == pytest.approx(eta, abs=1e-12)
        w = np.linalg.eigvalsh(ps)
        assert w.min() >= -1e-12 and w.max() == pytest.approx(eta, abs=1e-12)


def test_bell_fringe_matches_setting_by_setting_construction():
    rho = carve_bell_state(13.5, 0.3)
    phis = np.linspace(0.0, 2.0 * np.pi, 13)
    idler = _Setting("superposition", 0.0)
    ref = _rates(rho, _reference_stack((_Setting("superposition", float(p)), idler)
                                       for p in phis))
    assert bell_fringe(rho, phis).tobytes() == ref.tobytes()


def test_superposition_efficiency_matches_bessel_product():
    row = bessel_row(1, 0.8169)
    assert superposition_efficiency() == pytest.approx(
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


def test_fit_visibility_validation_and_sign_handling():
    phis = np.linspace(0, 2 * np.pi, 21)
    counts = 100.0 * (1.0 - 0.9 * np.cos(phis))
    fit = fit_visibility(phis, counts)
    assert fit.visibility == pytest.approx(0.9, abs=1e-6)
    assert abs(abs(fit.phase) - np.pi) < 1e-6
    with pytest.raises(InvalidArgumentError):
        fit_visibility(phis[:4], counts[:4])


def test_fit_visibility_raises_on_a_flat_fringe():
    # no fringe: the phase, and with it V's uncertainty, is undetermined,
    # also where the fringe is flat only to rounding, as the expected fringe
    # of the maximally mixed state is
    phis = np.linspace(0, 2 * np.pi, 13)
    ulps = np.spacing(500.0) * np.resize([0.0, 2.0, -1.0, 3.0], 13)
    for counts in (np.full(13, 500.0), 500.0 + ulps,
                   1e5 * bell_fringe(np.eye(4) / 4.0, phis)):
        with pytest.raises(FitFailureError, match="fringe fit failed"):
            fit_visibility(phis, counts)


def test_fit_visibility_sigma_is_finite_on_noiseless_fringe_at_zero_phase():
    phis = np.linspace(0, 2 * np.pi, 13)
    counts = 1e5 * (1.0 + 0.93 * np.cos(phis))
    fit = fit_visibility(phis, counts)
    assert fit.visibility == pytest.approx(0.93, abs=1e-9)
    assert abs(fit.phase) < 1e-9
    assert np.isfinite(fit.visibility_sigma) and 0 < fit.visibility_sigma < 1e-2


def test_mle_gradient_matches_finite_differences():
    rho = carve_bell_state(13.5, 0.4)
    records = simulate_counts(rho, 1e4, accidental_fraction=1e-3)
    args = (tomo._quadratic_forms(np.array([r.projector for r in records])),
            np.array([r.counts for r in records]),
            np.array([r.shots for r in records]),
            np.array([r.accidental for r in records]))
    x = np.random.default_rng(5).normal(scale=0.4, size=32)
    _, grad = _negloglike_and_grad(x, *args)
    eps = 1e-6
    num = np.array([(_negloglike_and_grad(x + eps * e, *args)[0]
                     - _negloglike_and_grad(x - eps * e, *args)[0]) / (2 * eps)
                    for e in np.eye(32)])
    assert np.abs(grad - num).max() < 1e-4 * max(1.0, np.abs(num).max())


@st.composite
def _likelihood_inputs(draw):
    """A random A (as its 32 parameters), K random POVM-like elements X X^dag,
    K random Hermitian matrices Y + Y^dag, and K records."""
    k = draw(st.integers(1, 24))
    unit = st.floats(-1.0, 1.0)
    a = draw(arrays(np.float64, (4, 4, 2), elements=unit).filter(
        lambda p: np.abs(p).sum() > 1e-2))
    x, y = (draw(arrays(np.complex128, (k, 4, 4), elements=st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False))) for _ in range(2))
    psd = x @ np.swapaxes(x, 1, 2).conj()
    herm = y + np.swapaxes(y, 1, 2).conj()
    counts = draw(arrays(np.float64, k, elements=st.integers(0, 10**5).map(float)))
    shots = draw(arrays(np.float64, k, elements=st.floats(1.0, 1e5)))
    accidentals = draw(arrays(np.float64, k, elements=st.floats(1e-3, 1e2)))
    return a.ravel(), psd, herm, counts, shots, accidentals


@settings(max_examples=150, deadline=None)
@given(_likelihood_inputs())
def test_quadratic_forms_give_the_rho_space_likelihood(inputs):
    params, psd, herm, counts, shots, accidentals = inputs
    a = params.view(complex).reshape(4, 4)
    # p Q_k p = Tr(A Pi_k A^dag) for any Hermitian Pi_k, within the rounding
    # bound of a sum of 64 products on each side, 64 eps of the sum of the
    # terms' absolute values (3000 random draws reached 3.4 eps of it, equal
    # terms 8 eps), plus an absolute floor for products that underflow
    tiny = 1e-300
    for pis in (psd, herm):
        qp = (tomo._quadratic_forms(pis) @ params).reshape(len(pis), 32)
        ref = np.einsum("ij,kjl,il->k", a, pis, a.conj())
        scale = np.einsum("ij,kjl,il->k", np.abs(a), np.abs(pis), np.abs(a))
        assert np.all(np.abs(qp @ params - ref.real)
                      <= 64 * np.finfo(float).eps * scale + tiny)
    # the NLL and its gradient against the rho-space NLL and the chain rule
    # through rho = A^dag A / Tr(A^dag A)
    data = (counts, shots, accidentals)
    nll, grad = _negloglike_and_grad(params, tomo._quadratic_forms(psd), *data)
    rho = tomo._rho_of(params)
    nll_ref, drho = tomo._negloglike_and_drho(rho, psd, *data)
    tra = params @ params
    inner = np.trace(rho @ drho).real
    grad_ref = (2.0 * (a @ drho - inner * a) / tra).view(float).ravel()
    mu = shots * tomo._rates(rho, psd) + accidentals
    assert abs(nll - nll_ref) <= 1e-12 * np.sum(mu + counts * np.abs(np.log(mu)))
    grad_scale = 2.0 * np.abs(a).max() * (np.abs(drho).sum() + abs(inner)) / tra
    assert np.abs(grad - grad_ref).max() <= 1e-12 * grad_scale + tiny


@st.composite
def _whitening_inputs(draw):
    """Records as ``qfpsim tomography`` makes them, from a pure state to a
    fully mixed one, 1 to 1e12 shots, CAR infinite or finite, in
    expected-value mode, Poisson sampled or with every count 0; a start x0
    and a whitened step q."""
    suppression_db = draw(st.one_of(st.just(np.inf), st.floats(0.0, 40.0)))
    shots = 10.0 ** draw(st.floats(0.0, 12.0))
    car = draw(st.one_of(st.just(np.inf), st.floats(1.0, 1e3)))
    mode = draw(st.sampled_from(("expected", "sampled", "zero")))
    records = _records(suppression_db, shots, car, draw(st.floats(0.0, 2.0 * np.pi)),
                       draw(st.integers(0, 2**32 - 1)) if mode == "sampled" else None)
    if mode == "zero":
        records = [replace(r, counts=0.0) for r in records]
    unit = st.floats(-1.0, 1.0)
    x0 = draw(arrays(np.float64, 32, elements=unit).filter(lambda p: np.abs(p).sum() > 1e-2))
    return records, x0, draw(arrays(np.float64, 32, elements=unit))


@settings(max_examples=150, deadline=None)
@given(_whitening_inputs())
def test_whitening_is_a_well_conditioned_change_of_variables(inputs):
    records, x0, q = inputs
    forms = tomo._quadratic_forms(np.array([r.projector for r in records]))
    data = np.array([(r.counts, r.shots, r.accidental) for r in records]).T
    r = tomo._whitening(x0, forms, *data[1:])
    # finite and upper triangular with a positive diagonal, and the ridge
    # bounds the eigenvalues of R^T R to [s, tr G + s], s = ridge tr(G)/32,
    # so R's condition number to sqrt(1 + 32/ridge)
    assert np.isfinite(r).all() and not np.tril(r, -1).any() and np.all(np.diag(r) > 0)
    assert np.linalg.cond(r) <= 1.01 * np.sqrt(1.0 + 32.0 / tomo._WHITEN_RIDGE)
    # the objective in q is the NLL at p = x0 + R^-1 q, and its gradient in q
    # is R^-T times the gradient in p: R^T grad_q = grad_p within the rounding
    # of two products of 32 terms each, 64 eps of their absolute terms (2000
    # random draws reached 1.7 eps of them, and a condition number of 10.4)
    r_inv = np.linalg.inv(r)
    nll_q, grad_q = tomo._whitened_negloglike_and_grad(q, x0, r_inv, forms, *data)
    nll, grad = _negloglike_and_grad(x0 + r_inv @ q, forms, *data)
    assert nll_q == nll
    bound = 64 * np.finfo(float).eps * (np.abs(r).T @ (np.abs(r_inv).T @ np.abs(grad)))
    assert np.all(np.abs(r.T @ grad_q - grad) <= bound + 1e-300)


def test_whitening_falls_back_to_the_identity():
    # no rate depends on p (every projector I, so G = 0), G overflows (1e308
    # shots), or p = 0: the fit runs on R = I, with no warning or exception
    x0 = np.random.default_rng(3).normal(size=32)
    flat = tomo._quadratic_forms(np.array([np.eye(4)] * 16))
    canonical = tomo._quadratic_forms(_canonical_projectors())
    ones, zeros = np.ones(16), np.zeros(16)
    for params, forms, shots in ((x0, flat, ones), (x0, canonical, 1e308 * ones),
                                 (np.zeros(32), canonical, ones)):
        assert np.array_equal(tomo._whitening(params, forms, shots, zeros), np.eye(32))
    # G at subnormal scale (1e-165.5 shots): LAPACK's Cholesky refuses G + s I
    # with s = 2.5e-323, and the fit runs on R = I there too
    r = tomo._whitening(x0, canonical, 10.0**-165.5 * ones, zeros)
    assert np.isfinite(r).all() and not np.tril(r, -1).any() and np.all(np.diag(r) > 0)


def test_mle_on_all_zero_counts_with_accidentals():
    # every background-subtracted rate is 0, so the linear inversion falls
    # back to I/4; a real fallback gave the seed 16 parameters, not 32
    pis = _canonical_projectors()
    records = [tomo.MeasurementRecord(pi, 0.0, 1.0, 0.02) for pi in pis]
    assert np.array_equal(tomo._linear_inversion(pis, np.zeros(16)),
                          np.eye(4, dtype=complex) / 4.0)
    rho = mle_reconstruct(records)
    assert rho.dtype == complex and 0.0 < purity(rho) <= 1.0 + 1e-12


def test_mle_exact_on_expected_counts():
    rho = carve_bell_state(13.5, bell_phase=0.25)
    records = simulate_counts(rho, 1e5)
    est = mle_reconstruct(records)
    assert state_fidelity(est, rho) == pytest.approx(1.0, abs=1e-6)


def test_mle_monte_carlo_is_close():
    rho = carve_bell_state(13.5)
    records = simulate_counts(rho, 1e4, rng=np.random.default_rng(21))
    est = mle_reconstruct(records)
    assert state_fidelity(est, rho) > 0.97


def _records(suppression_db, shots, car, bell_phase, seed):
    """Records as ``qfpsim tomography`` simulates them: accidentals at 1/car
    of the peak rate, Poisson sampled from ``seed`` (expected values for None)."""
    rho = carve_bell_state(suppression_db, bell_phase)
    peak = max(r.counts for r in simulate_counts(rho, shots)) / shots
    return simulate_counts(rho, shots, accidental_fraction=peak / car,
                           rng=None if seed is None else np.random.default_rng(seed))


def _nll_and_gap(params, records):
    """Poisson NLL of the records at rho(A(params)) and its Frank-Wolfe gap
    Tr(D rho) - lambda_min(D), built record by record."""
    rho = tomo._rho_of(params)
    nll, drho = 0.0, np.zeros((4, 4), dtype=complex)
    for r in records:
        mu = max(r.shots * np.trace(rho @ r.projector).real + r.accidental, 1e-12)
        nll += mu - r.counts * np.log(mu)
        drho += (1.0 - r.counts / mu) * r.shots * r.projector
    return nll, np.trace(drho @ rho).real - np.linalg.eigvalsh(drho)[0]


def _mle_runs(records, gap_tol=MLE_GAP_TOL):
    """mle_reconstruct's estimate with MLE_GAP_TOL at ``gap_tol``, and every
    minimizer result it made on the way, its whitened step q mapped back to
    the 32 parameters p = x0 + R^-1 q as mle_reconstruct maps it."""
    runs = []
    minimize = tomo.minimize

    def recording(objective, q0, args, **kwargs):
        run = minimize(objective, q0, args=args, **kwargs)
        x0, r_inv = args[:2]
        runs.append(SimpleNamespace(x=x0 + r_inv @ run.x, fun=run.fun))
        return run

    with pytest.MonkeyPatch.context() as m:
        m.setattr(tomo, "minimize", recording)
        m.setattr(tomo, "MLE_GAP_TOL", gap_tol)
        return mle_reconstruct(records), runs


@settings(max_examples=25, deadline=None)
@given(st.floats(8.0, 25.0), st.floats(3.0, 5.0),
       st.one_of(st.just(np.inf), st.floats(np.log10(5.0), 2.0).map(lambda x: 10.0**x)),
       st.floats(0.0, 2.0 * np.pi), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_mle_gap_certifies_the_estimate(suppression_db, log_shots, car, bell_phase,
                                        mode, seed):
    # a quarter of the draws in expected-value mode
    expected_value = mode == 0
    records = _records(suppression_db, 10.0**log_shots, car, bell_phase,
                       None if expected_value else seed)
    # every start run to completion: no gap ever certifies
    _, runs = _mle_runs(records, gap_tol=-np.inf)
    assert len(runs) == 1 + tomo.MLE_RESTARTS
    nlls, gaps = np.array([_nll_and_gap(run.x, records) for run in runs]).T
    best = nlls.min()
    # the NLL is convex in rho, so each result's gap bounds its distance
    # from the best of the four (up to rounding of NLLs near 1e6)
    assert np.all(nlls - best <= gaps + 1e-6)
    rho, gated = _mle_runs(records)
    estimate = min(gated, key=lambda run: run.fun)
    assert np.array_equal(rho, tomo._rho_of(estimate.x))
    assert _nll_and_gap(estimate.x, records)[0] - best <= MLE_GAP_TOL
    if expected_value:
        # the linear-inversion seed is exact, and its gap certifies it
        assert len(gated) == 1


# the command's expected-value config, and the pure states it carves at
# infinite suppression, with and without accidentals: exact counts, so an
# exact seed, whose rounding-negative eigenvalues (pure states) are clipped
@pytest.mark.parametrize("suppression_db, car", [(13.5, 55.0), (np.inf, np.inf),
                                                 (np.inf, 55.0)])
def test_mle_certified_seed_makes_one_run(suppression_db, car):
    records = _records(suppression_db, 1e4, car, 0.0, None)
    _, runs = _mle_runs(records)
    assert len(runs) == 1
    assert _nll_and_gap(runs[0].x, records)[1] < 1e-6


def test_mle_seed_floor_lets_the_seed_gain_rank():
    # one of 300 Poisson-sampled states drawn like the benchmark's (numpy seed
    # 55: dB uniform in [12, 16], 1e4 shots, CAR 55): the linear-inversion
    # seed has two negative eigenvalues and the MLE has rank 3, so a seed
    # clipped at 0 (rank 2) keeps rho at rank 2 and stalls 0.30 NLL above it
    records = _records(15.776018537676478, 1e4, 55.0, 4.28218568506312, 988927011)
    rho, runs = _mle_runs(records)
    assert len(runs) == 1
    assert _nll_and_gap(runs[0].x, records)[1] <= MLE_GAP_TOL
    assert np.linalg.eigvalsh(rho)[1] > 1e-3


# Two cases of a seeded sweep over 1000 carved states (numpy seed 2026: for
# each state in turn dB uniform in [8, 25], log10 shots in [3, 5], CAR
# infinite where a uniform draw is below 0.2, else log-uniform in [5, 100],
# expected-value mode where a uniform draw is below 0.25, the Bell phase
# uniform in [0, 2 pi), then for a sampled state its seed, integers(2**31)),
# as drawn, in which the seed run does not certify.  In case 301 only the
# last start certifies: the seed run ends lowest, 6.6e-6 to 2.1e-5 NLL below
# the others, with a gap of 0.155, so all four run and it is returned.  In case
# 261 the seed run stalls 5.2e-3 NLL above the best and the first restart
# certifies.  Each case is (inputs, runs made).
@pytest.mark.parametrize("case", [
    ((24.79370212109107, 32432.20060162126, np.inf, 2.8570570574622183, 1034589840), 4),
    ((13.470311965152245, 83998.5329717803, 6.699524968327501, 6.272205100872229, 23920538),
     2)])
def test_mle_stalled_seed_returns_the_best_of_all_starts(case):
    inputs, made = case
    records = _records(*inputs)
    rho, runs = _mle_runs(records)
    assert len(runs) == made
    assert _nll_and_gap(runs[0].x, records)[1] > MLE_GAP_TOL
    best = min(runs, key=lambda run: run.fun)
    if made == 1 + tomo.MLE_RESTARTS:
        # uncertified: the best of all four, bit for bit
        assert _nll_and_gap(best.x, records)[1] > MLE_GAP_TOL
        every, _ = _mle_runs(records, gap_tol=-np.inf)
        assert np.array_equal(rho, every)
    else:
        # the last restart made is the best so far and certifies
        assert runs[0].fun - best.fun > 1e-3
        assert best is runs[-1]
        assert _nll_and_gap(best.x, records)[1] <= MLE_GAP_TOL
        assert np.array_equal(rho, tomo._rho_of(best.x))


def test_mle_a_later_certified_start_certifies_the_best(monkeypatch):
    # the minimizer replaced by prescribed results: the seed run ends lowest but
    # uncertified, and the first restart certifies 1.0 NLL above it.  Since
    # f(best) <= f(run) <= f* + gap(run), that certifies the best as well:
    # the restarts stop, and the best is returned
    records = _records(13.5, 1e4, 55.0, 0.0, 7)
    optimum = mle_reconstruct(records)
    poor = (np.eye(4, dtype=complex) / 2.0).ravel().view(float)  # rho = I / 4
    certified = tomo._psd_sqrt(optimum).ravel().view(float)
    results = iter([(poor, 1.0), (certified, 2.0)])
    ends = []

    def prescribed(objective, q0, args, **kwargs):
        # the whitened step that ends the start x0 at the prescribed parameters
        x0, r_inv = args[:2]
        target, fun = next(results)
        q = np.linalg.solve(r_inv, target - x0)
        ends.append(x0 + r_inv @ q)
        return SimpleNamespace(x=q, fun=fun)

    monkeypatch.setattr(tomo, "minimize", prescribed)
    rho = mle_reconstruct(records)
    assert len(ends) == 2
    assert _nll_and_gap(ends[0], records)[1] > MLE_GAP_TOL
    assert _nll_and_gap(ends[1], records)[1] <= MLE_GAP_TOL
    assert np.array_equal(rho, tomo._rho_of(ends[0]))


def test_simulate_counts_modes_and_accidentals():
    rho = carve_bell_state(np.inf)
    exact = simulate_counts(rho, 1e4, accidental_fraction=1e-3)
    assert all(r.accidental == pytest.approx(10.0) for r in exact)
    assert np.array_equal([r.projector for r in exact], _canonical_projectors())
    # one shared stack, so no record can change another's projector
    assert _canonical_projectors() is _canonical_projectors()
    with pytest.raises(ValueError):
        exact[0].projector[0, 0] = 0.0
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
