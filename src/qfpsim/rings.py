"""Add-drop microring resonators, two-ring waveshaper units, and the pump filter.

The two-coupler add-drop model is the standard scattering-matrix one with
symmetric power coupling kappa^2 per coupler and amplitude self-coupling
t_c = sqrt(1 - kappa^2).  The drop path carries half a round trip of loss
and phase.  A waveshaper (WS) unit is a DEMUX ring whose drop port feeds a
programmable phase shifter and is multiplexed back onto the bus by a MUX
ring; the bus output is the two-path interference of the through path and
the drop-phase-add path.  The processor's waveshaper is one spectral phase
per bin (``ws_operator``).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .lattice import FrequencyLattice


@dataclass(frozen=True)
class RingParams:
    """Geometry and coupling of one add-drop microring.

    ``round_trip_loss`` is the amplitude factor per round trip; use
    :func:`make_ring` to derive it from a propagation-loss figure calibrated
    against the measured loaded Q and per-channel insertion loss.
    """

    resonance_wavelength: float
    power_coupling: float
    round_trip_loss: float
    radius: float
    effective_index: float

    def __post_init__(self):
        if not 0.0 < self.power_coupling < 1.0:
            raise InvalidArgumentError("power coupling must be in (0, 1)")
        if not 0.0 < self.round_trip_loss <= 1.0:
            raise InvalidArgumentError("round-trip amplitude loss must be in (0, 1]")
        # extreme geometry underflows the optical length or the finesse
        # denominator; reject it here rather than divide by zero later
        with np.errstate(all="ignore"):
            try:
                widths = (self.fsr_wavelength, self.linewidth_fwhm)
            except (ZeroDivisionError, OverflowError):
                widths = (np.nan,)
        if not all(0.0 < w < np.inf for w in widths):
            raise InvalidArgumentError("ring FSR and linewidth must be finite and positive")

    @property
    def circumference(self) -> float:
        return 2.0 * np.pi * self.radius

    @property
    def self_coupling(self) -> float:
        return float(np.sqrt(1.0 - self.power_coupling))

    @property
    def fsr_wavelength(self) -> float:
        return self.resonance_wavelength**2 / (self.effective_index * self.circumference)

    @property
    def finesse(self) -> float:
        x = self.self_coupling**2 * self.round_trip_loss
        return float(np.pi * np.sqrt(x) / (1.0 - x))

    @property
    def linewidth_fwhm(self) -> float:
        """Loaded linewidth (wavelength FWHM) of the Lorentzian resonance."""
        return self.fsr_wavelength / self.finesse

    @property
    def loaded_q(self) -> float:
        return self.resonance_wavelength / self.linewidth_fwhm


def make_ring(resonance_wavelength: float, power_coupling: float, loss_db_per_cm: float,
              radius: float, effective_index: float) -> RingParams:
    """RingParams with the round-trip amplitude derived from dB/cm loss.

    The dB figure is applied directly to the round-trip amplitude
    (a = 10^(-loss_dB/10)); this effective-loss convention reproduces both
    the measured loaded Q (~5x10^4) and the 5-6 dB per-channel insertion
    loss at the nominal 1.2 dB/cm, radius 50 um operating point.
    """
    loss_db = loss_db_per_cm * (2.0 * np.pi * radius * 100.0)
    a = 10.0 ** (-loss_db / 10.0)
    return RingParams(resonance_wavelength, power_coupling, a, radius, effective_index)


def _ring_ports(probe_wavelength, ring: RingParams, detuning=0.0):
    """(through, drop) amplitudes with the resonance moved ``detuning`` off
    its nominal wavelength, from one round-trip phase, one exp and one
    shared denominator; broadcasts over array inputs."""
    length = ring.circumference * ring.effective_index
    phi = 2.0 * np.pi * length * (1.0 / np.asarray(probe_wavelength)
                                  - 1.0 / (ring.resonance_wavelength + detuning))
    tc = ring.self_coupling
    a = ring.round_trip_loss
    half = np.exp(0.5j * phi)
    e = a * half * half
    denom = 1.0 - tc**2 * e
    return (tc * (1.0 - e) / denom,
            -ring.power_coupling * np.sqrt(a) * half / denom)


@dataclass(frozen=True)
class WsUnitConfig:
    """One DEMUX-phase-MUX waveshaper unit imprinting ``channel_phase`` on its
    channel; ``detunings`` are the (demux, mux) resonance offsets from the
    channel wavelength, (0, 0) when aligned."""

    demux: RingParams
    mux: RingParams
    channel_phase: float = 0.0
    detunings: tuple = (0.0, 0.0)


def ws_unit(demux: RingParams, mux: RingParams) -> WsUnitConfig:
    """The aligned unit of two rings, at channel phase 0."""
    return WsUnitConfig(demux, mux)


def _ws_power_factors(channel_phase: float, demux_ports, mux_ports):
    """(demux, mux) factor tuples whose products sum to the bus power
    |t_M t_D + d_M e^{i Phi} d_D|^2 of a unit: (|t_D|^2, |d_D|^2,
    e^{i Phi} conj(t_D) d_D, its conjugate) against (|t_M|^2, |d_M|^2,
    conj(t_M) d_M, its conjugate).  Each factor depends on one ring's
    ports alone, so products over a grid of both rings separate into
    per-ring arrays."""
    (t_d, d_d), (t_m, d_m) = demux_ports, mux_ports
    cross_d = np.exp(1j * channel_phase) * (np.conj(t_d) * d_d)
    cross_m = np.conj(t_m) * d_m
    return ((np.abs(t_d) ** 2, np.abs(d_d) ** 2, cross_d, np.conj(cross_d)),
            (np.abs(t_m) ** 2, np.abs(d_m) ** 2, cross_m, np.conj(cross_m)))


def ws_unit_response(probe_wavelength, unit: WsUnitConfig, extra_detunings=(0.0, 0.0)):
    """Bus-output amplitude t_M t_D + d_M e^{i Phi} d_D of a WS unit (through
    and drop-phase-add paths); broadcasts over wavelength arrays."""
    (t_d, d_d), (t_m, d_m) = (
        _ring_ports(probe_wavelength, ring, det + np.asarray(extra))
        for ring, det, extra in zip((unit.demux, unit.mux), unit.detunings, extra_detunings))
    return t_m * t_d + d_m * np.exp(1j * unit.channel_phase) * d_d


def reduce_phase(phase: float) -> float:
    """The angle of exp(i phase) in [-pi, pi], with the exact argument
    reduction of the scalar cos and sin: at 1e16 rad a remainder by 2 pi
    is 0.4 rad off.  An angle already in [-pi, pi] is returned as it is."""
    if -math.pi <= phase <= math.pi:
        return float(phase)
    return cmath.phase(cmath.exp(1j * phase))


def ws_operator(phases, lattice: FrequencyLattice) -> np.ndarray:
    """Diagonal exp(i Phi) of the processor's waveshaper, one spectral phase
    per window bin (a bin at phase 0 passes unchanged)."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (lattice.size,):
        raise InvalidArgumentError(f"need one WS phase for each of the {lattice.size} bins")
    return np.exp(1j * phases)


def mzi_pump_filter(probe_frequency, fsr: float, extinction: float, phase_offset: float = 0.0):
    """Asymmetric-MZI power transmission in [0, 1]; broadcasts over frequency."""
    if fsr <= 0:
        raise InvalidArgumentError("pump-filter FSR must be positive")
    if extinction <= 0:
        raise InvalidArgumentError("extinction must be positive (dB)")
    floor = 10.0 ** (-extinction / 10.0)
    with np.errstate(over="ignore"):
        arg = np.pi * np.asarray(probe_frequency) / fsr + phase_offset
    if not np.all(np.isfinite(arg)):
        raise InvalidArgumentError("pump-filter phase overflows: frequency too large for the FSR")
    return floor + (1.0 - floor) * np.sin(arg) ** 2
