"""Independent reference computations and output checks.

Nothing here calls qfpsim: every expected value is rebuilt from the
physics with ``scipy.special.jv`` and plain numpy, so a check passes only
when qfpsim agrees with a second computation, never with a stored copy of
its own output.  Each check raises :class:`CheckError` on a mismatch.
"""

import json
import math

import numpy as np
from scipy.special import jv

BESSEL_ORDERS = 120
TAIL_TOL = 1e-12


class CheckError(AssertionError):
    """An output of qfpsim disagrees with the independent computation."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


def wrap(phi):
    """Angle difference folded into [-pi, pi)."""
    return (np.asarray(phi) + np.pi) % (2.0 * np.pi) - np.pi


# --- beamsplitter closed form --------------------------------------------

def bessel_j(delta):
    """J_0..J_BESSEL_ORDERS(delta) from scipy."""
    return jv(np.arange(BESSEL_ORDERS + 1), delta)


def rt_coefficients(delta):
    """(J0^4, (1 - J0^4)/2, jbar) so that R = a + b (1 + cos alpha) and
    T = jbar (1 - cos alpha), jbar = 2 (sum_k J_k J_{k-1})^2."""
    j = bessel_j(delta)
    a = j[0] ** 4
    jbar = 2.0 * float(np.sum(j[1:] * j[:-1])) ** 2
    return a, (1.0 - a) / 2.0, jbar


def rt_closed_form(alpha, delta):
    a, b, jbar = rt_coefficients(delta)
    c = np.cos(alpha)
    return a + b * (1.0 + c), jbar * (1.0 - c)


def gate_rt(theta, delta):
    """(R, T) of the beamsplitter a gate at splitting angle theta uses.

    Solves T / (R + T) = sin^2(theta/2) for cos(alpha) in closed form,
    clamped at alpha = pi where the depth cannot split further.
    """
    a, b, jbar = rt_coefficients(delta)
    s2 = math.sin(theta / 2.0) ** 2
    c = (jbar - s2 * (a + b + jbar)) / (jbar + s2 * (b - jbar))
    c = min(max(c, -1.0), 1.0)
    return a + b * (1.0 + c), jbar * (1.0 - c)


def max_theta(delta):
    """Largest splitting angle reachable at depth delta (capped at pi/2)."""
    r, t = rt_closed_form(math.pi, delta)
    return min(math.pi / 2.0, 2.0 * math.asin(math.sqrt(t / (r + t))))


def truncation_margin(delta, tol=TAIL_TOL):
    """Smallest K with 2 sum_{k>K} J_k(delta)^2 < tol."""
    p = bessel_j(delta) ** 2
    tail = 2.0 * np.cumsum(p[::-1])[::-1]  # tail[k] = 2 sum_{j>=k} J_j^2
    return int(np.argmax(tail[1:] < tol))


# --- gates and operators --------------------------------------------------

def target_gate(theta, lam, mu):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, np.exp(1j * lam) * s],
                     [np.exp(1j * mu) * s, -np.exp(1j * (lam + mu)) * c]])


def block_fidelity(v, u):
    p = float(np.sum(np.abs(v) ** 2)) / 2.0
    return abs(np.sum(np.conj(v) * u)) ** 2 / (4.0 * p)


def row_gauge(v):
    out = np.array(v, dtype=complex)
    for row in out:
        anchor = row[0] if abs(row[0]) > 1e-12 else row[1]
        if abs(anchor) > 0:
            row *= abs(anchor) / anchor
    return out


def check_gate_block(v, theta, lam, mu, delta, fidelity=None, success=None):
    """|V|^2 against the closed form, fidelity >= 0.999 recomputed here."""
    v = np.asarray(v, dtype=complex)
    r, t = gate_rt(theta, delta)
    err = np.abs(np.abs(v) ** 2 - np.array([[r, t], [t, r]])).max()
    require(err <= 1e-6, f"|V|^2 off the closed form by {err:.3g}")
    f = block_fidelity(v, target_gate(theta, lam, mu))
    require(f >= 0.999, f"gate fidelity {f:.6f} < 0.999")
    if fidelity is not None:
        require(abs(fidelity - f) <= 1e-9,
                f"reported fidelity {fidelity!r} != recomputed {f!r}")
    if success is not None:
        require(abs(success - (r + t)) <= 1e-6,
                f"success probability {success!r} != R + T = {r + t!r}")


def check_reconstruction(v_rec, v):
    err = np.abs(row_gauge(v_rec) - row_gauge(v)).max()
    require(err <= 1e-6, f"reconstruction gauge error {err:.3g} > 1e-6")


def check_operator(entries, delta):
    """Columns farther than twice the truncation margin from the window
    edge are orthonormal: the interior is unitary and conserves power."""
    q = np.asarray(entries)
    n = q.shape[0]
    k = 2 * truncation_margin(delta)
    require(n - 2 * k >= 2, f"window of {n} bins has no interior at depth {delta}")
    cols = q[:, k:n - k]
    err = np.abs(cols.conj().T @ cols - np.eye(n - 2 * k)).max()
    require(err <= 1e-9, f"interior unitarity deficit {err:.3g}")


def check_spectra(spectra):
    for key, s in spectra.items():
        total = float(np.sum(s))
        require(abs(total - 1.0) <= 1e-9, f"probe {key} keeps power {total!r}")


# --- calibration, walks and tomography ------------------------------------

def ring_amplitudes(probe, resonance, ring):
    """Through and drop amplitudes of a symmetric add-drop ring."""
    length = 2.0 * math.pi * ring.radius * ring.effective_index
    phi = 2.0 * math.pi * length * (1.0 / probe - 1.0 / resonance)
    tc = math.sqrt(1.0 - ring.power_coupling)
    a = ring.round_trip_loss
    den = 1.0 - tc * tc * a * np.exp(1j * phi)
    through = tc * (1.0 - a * np.exp(1j * phi)) / den
    drop = -ring.power_coupling * math.sqrt(a) * np.exp(0.5j * phi) / den
    return through, drop


def alignment_map(ring, detunings, channel_phase, grid, dither, probe):
    """|2(f_D + f_M)| dither harmonic of one WS unit (two identical rings)
    over the grid of ring offsets: the map an alignment scan maximizes."""
    n = int(round(dither.duration * dither.sample_rate))
    t = np.arange(n) / dither.sample_rate
    wiggle_d = dither.amplitude * np.sin(2.0 * math.pi * dither.f_demux * t)
    wiggle_m = dither.amplitude * np.sin(2.0 * math.pi * dither.f_mux * t)
    kernel = np.exp(-2j * math.pi * 2.0 * (dither.f_demux + dither.f_mux) * t)
    out = np.zeros((len(grid), len(grid)))
    lam0 = ring.resonance_wavelength
    for i, gd in enumerate(grid):
        td, dd = ring_amplitudes(probe, lam0 + detunings[0] + gd + wiggle_d, ring)
        for j, gm in enumerate(grid):
            tm, dm = ring_amplitudes(probe, lam0 + detunings[1] + gm + wiggle_m, ring)
            field = tm * td + dm * np.exp(1j * channel_phase) * dd
            out[i, j] = abs(2.0 / n * np.sum(np.abs(field) ** 2 * kernel))
    return out


def check_alignment(scan_map, recovered, grid, expected, planted):
    """The scan map matches the independent one; the recovered offsets are
    its peak (ties within 1e-6 allowed); they undo the planted detunings
    to within 1.5 grid steps: half a step of rounding plus the peak's
    channel-phase-dependent offset from zero detuning (up to ~0.045
    linewidths, under half a step, measured on fine scans)."""
    scan_map = np.asarray(scan_map)
    err = np.abs(scan_map - expected).max() / expected.max()
    # 1e-6: both subtract reciprocals of ~1.5 um wavelengths
    require(err <= 1e-6, f"scan map off the independent one by {err:.3g}")
    idx = tuple(int(np.argmin(np.abs(grid - r))) for r in recovered)
    require(expected[idx] >= expected.max() * (1.0 - 1e-6),
            f"recovered grid point {idx} is not the peak of the scan map")
    step = grid[1] - grid[0]
    off = np.abs(-np.asarray(recovered) - np.asarray(planted)).max() / step
    require(off <= 1.5, f"alignment off the planted detunings by {off:.3g} steps")


def check_phase_fit(power_2pi, phase_offset, planted_2pi, planted_offset):
    rel = abs(power_2pi / planted_2pi - 1.0)
    require(rel <= 0.01, f"P_2pi off by {rel:.3g} (relative)")
    dphi = abs(float(wrap(phase_offset - planted_offset)))
    require(dphi <= 0.01 * math.pi, f"phi_0 off by {dphi:.3g} rad")


def check_phases(recovered, planted, tol=0.01):
    err = float(np.abs(wrap(np.asarray(recovered) - np.asarray(planted))).max())
    require(err <= tol, f"retrieved phases off by {err:.3g} rad")


def bell_state(suppression_db, bell_phase):
    """(1 - p)|psi><psi| + p I/4, |psi> = (|00> + e^{i phase}|11>)/sqrt(2)."""
    p = 10.0 ** (-suppression_db / 10.0)
    psi = np.array([1.0, 0.0, 0.0, np.exp(1j * bell_phase)]) / math.sqrt(2.0)
    return (1.0 - p) * np.outer(psi, psi.conj()) + p * np.eye(4) / 4.0


def uhlmann_fidelity(rho, sigma):
    w, u = np.linalg.eigh(rho)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    ev = np.linalg.eigvalsh(root @ sigma @ root)
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


def check_density(rho, planted, floor):
    rho = np.asarray(rho, dtype=complex)
    require(rho.shape == (4, 4), f"density matrix has shape {rho.shape}")
    herm = np.abs(rho - rho.conj().T).max()
    require(herm <= 1e-10, f"density matrix not Hermitian ({herm:.3g})")
    tr = np.trace(rho).real
    require(abs(tr - 1.0) <= 1e-10, f"density matrix trace {tr!r}")
    low = np.linalg.eigvalsh(rho).min()
    require(low >= -1e-10, f"density matrix eigenvalue {low:.3g} < 0")
    f = uhlmann_fidelity(rho, planted)
    require(f >= floor, f"fidelity to the planted state {f:.4f} < {floor}")


def superposition_eta(depth):
    j = jv([0, 1], depth)
    return (2.0 * j[0] * j[1]) ** 2


def fringe_rates(phis, suppression_db, bell_phase, depth):
    """Coincidence rate vs signal analyzer phase (idler analyzer at 0)."""
    p = 10.0 ** (-suppression_db / 10.0)
    eta = superposition_eta(depth)
    return eta ** 2 / 4.0 * (1.0 + (1.0 - p) * np.cos(np.asarray(phis) - bell_phase))


def fringe_model(phis, suppression_db, bell_phase, depth, car, shots):
    """(visibility, Poisson sigma of the fitted visibility) of the fringe
    counted with the accidental floor max(sampled rates) / car."""
    p = 10.0 ** (-suppression_db / 10.0)
    scale = superposition_eta(depth) ** 2 / 4.0
    accidental = fringe_rates(phis, suppression_db, bell_phase, depth).max() / car
    vis = scale * (1.0 - p) / (scale + accidental)
    base = (scale + accidental) * shots
    # Fisher information of Poisson counts mu = B (1 + V cos(x + chi))
    x = np.asarray(phis, dtype=float) - bell_phase
    mu = base * (1.0 + vis * np.cos(x))
    jac = np.stack([1.0 + vis * np.cos(x), base * np.cos(x),
                    -base * vis * np.sin(x)], axis=1)
    info = jac.T @ (jac / mu[:, None])
    return vis, math.sqrt(np.linalg.inv(info)[1, 1])


def check_fringe(rates, phis, suppression_db, bell_phase, depth):
    err = np.abs(np.asarray(rates)
                 - fringe_rates(phis, suppression_db, bell_phase, depth)).max()
    require(err <= 1e-12, f"fringe rates off by {err:.3g}")


def check_visibility(visibility, sigma, expected, expected_sigma, k=6.0):
    """Visibility within k sigma of the planted state's, with a finite,
    honest uncertainty."""
    require(math.isfinite(sigma), f"visibility sigma is {sigma!r}")
    require(abs(visibility - expected) <= k * expected_sigma,
            f"visibility {visibility:.5f} outside {expected:.5f} "
            f"+/- {k * expected_sigma:.2g}")
    ratio = sigma / expected_sigma
    require(0.5 <= ratio <= 2.0,
            f"visibility sigma {sigma:.3g} vs Poisson {expected_sigma:.3g}")


# --- command-line outputs ---------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text):
    """Parse JSON, rejecting NaN and +/-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def check_spectrum_output(cfg, table, summary, delta, half_width):
    """spectrum.csv rows (bin, power) and spectrum_summary.json."""
    bins = table[:, 0]
    require(np.array_equal(bins, np.arange(-half_width, half_width + 1)),
            "spectrum bins do not cover the window")
    r, t = rt_closed_form(cfg["alpha"], delta)
    i_in = cfg["input_bin"] + half_width
    i_out = (1 - cfg["input_bin"]) + half_width
    err = max(abs(table[i_in, 1] - r), abs(table[i_out, 1] - t))
    require(err <= 1e-6, f"spectrum R/T off the closed form by {err:.3g}")
    total = float(table[:, 1].sum())
    require(abs(total - 1.0) <= 1e-9, f"spectrum keeps power {total!r}")
    require(abs(summary["total_power"] - total) <= 1e-12,
            "summary total_power disagrees with the CSV")


def check_beamsplitter_output(cfg, table, summary, delta):
    """beamsplitter.csv rows (alpha, R_cf, T_cf, R, T, P, F) and summary."""
    alphas = np.linspace(cfg["alpha_min"], cfg["alpha_max"], cfg["alpha_points"])
    require(table.shape == (len(alphas), 7), f"beamsplitter table {table.shape}")
    require(np.abs(table[:, 0] - alphas).max() <= 1e-12, "alpha column")
    r, t = rt_closed_form(alphas, delta)
    cf_err = max(np.abs(table[:, 1] - r).max(), np.abs(table[:, 2] - t).max())
    require(cf_err <= 1e-9, f"closed-form columns off by {cf_err:.3g}")
    m_err = max(np.abs(table[:, 3] - r).max(), np.abs(table[:, 4] - t).max())
    require(m_err <= 1e-6, f"matrix R/T off the closed form by {m_err:.3g}")
    p_err = np.abs(table[:, 5] - (r + t)).max()
    require(p_err <= 1e-6, f"success probability off R + T by {p_err:.3g}")
    require(np.all((table[:, 6] >= 0) & (table[:, 6] <= 1 + 1e-9)),
            "fidelity column outside [0, 1]")
    r_pi, t_pi = rt_closed_form(math.pi, delta)
    require(abs(summary["R_at_pi"] - r_pi) <= 1e-9
            and abs(summary["T_at_pi"] - t_pi) <= 1e-9, "R/T at pi")
    require(abs(summary["min_success_probability"] - table[:, 5].min()) <= 1e-12,
            "summary min_success_probability disagrees with the CSV")
    require(summary["alpha_points"] == len(alphas), "alpha_points")


def check_gate_output(cfg, summary, delta):
    mag = np.array(summary["matrix_magnitude_squared"])
    v = np.sqrt(mag) * np.exp(1j * np.array(summary["matrix_phase"]))
    check_gate_block(v, cfg["theta"], cfg["lam"], cfg["mu"], delta,
                     fidelity=summary["fidelity"],
                     success=summary["success_probability"])
    err = summary["reconstruction_gauge_error"]
    require(0.0 <= err <= 1e-6, f"reconstruction gauge error {err!r}")


def check_tomography_output(cfg, rho, summary, depth, car):
    """Expected-value tomography: exact MLE and the planted visibility."""
    sup, phase = cfg["suppression_db"], cfg["bell_phase"]
    check_density(rho, bell_state(sup, phase), floor=1.0 - 1e-6)
    phis = np.linspace(0.0, 2.0 * math.pi, cfg["fringe_points"])
    vis, _ = fringe_model(phis, sup, phase, depth, car, cfg["fringe_shots"])
    require(abs(summary["visibility"] - vis) <= 1e-6,
            f"visibility {summary['visibility']!r} != {vis!r}")
    require(math.isfinite(summary["visibility_sigma"]),
            "visibility sigma is not finite")
