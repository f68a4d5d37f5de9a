"""Add-drop microring resonators, two-ring waveshaper units, and the pump filter.

The two-coupler add-drop model is the standard scattering-matrix one with
symmetric power coupling kappa^2 per coupler and amplitude self-coupling
t_c = sqrt(1 - kappa^2).  The drop path carries half a round trip of loss
and phase.  A waveshaper (WS) unit is a DEMUX ring whose drop port feeds a
programmable phase shifter and is multiplexed back onto the bus by a MUX
ring; the bus output is the two-path interference of the through path and
the drop-phase-add path.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .eom import ModeOperator
from .lattice import FrequencyLattice

MODE_PHASE = "PHASE"
MODE_PASS = "PASS"
MODE_STOP = "STOP"
PASS_DETUNING_LINEWIDTHS = 25.0


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


def _round_trip_phase(probe_wavelength, ring: RingParams, resonance_wavelength=None):
    lam0 = ring.resonance_wavelength if resonance_wavelength is None else resonance_wavelength
    length = ring.circumference * ring.effective_index
    return 2.0 * np.pi * length * (1.0 / np.asarray(probe_wavelength) - 1.0 / lam0)


def _ring_ports(probe_wavelength, ring: RingParams, resonance_wavelength=None):
    """(through, drop) amplitudes from one round-trip phase, one exp and
    one shared denominator."""
    phi = _round_trip_phase(probe_wavelength, ring, resonance_wavelength)
    tc = ring.self_coupling
    a = ring.round_trip_loss
    half = np.exp(0.5j * phi)
    e = a * half * half
    denom = 1.0 - tc**2 * e
    return (tc * (1.0 - e) / denom,
            -ring.power_coupling * np.sqrt(a) * half / denom)


def ring_through(probe_wavelength, ring: RingParams, resonance_wavelength=None):
    """Through-port amplitude t(lambda); broadcasts over array inputs."""
    return _ring_ports(probe_wavelength, ring, resonance_wavelength)[0]


def ring_drop(probe_wavelength, ring: RingParams, resonance_wavelength=None):
    """Drop-port amplitude d(lambda); carries half a round trip of loss and phase."""
    return _ring_ports(probe_wavelength, ring, resonance_wavelength)[1]


@dataclass(frozen=True)
class WsUnitConfig:
    """One DEMUX-phase-MUX waveshaper unit.

    ``detunings`` are the (demux, mux) resonance offsets from the channel
    wavelength; PHASE mode intends (0, 0), PASS mode detunes both rings far
    off resonance, STOP mode aligns exactly the demux ring and terminates
    the dropped light in an absorber.
    """

    demux: RingParams
    mux: RingParams
    channel_phase: float = 0.0
    mode: str = MODE_PHASE
    detunings: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.mode not in (MODE_PHASE, MODE_PASS, MODE_STOP):
            raise InvalidArgumentError(f"unknown WS mode {self.mode!r}")


def ws_unit(demux: RingParams, mux: RingParams, mode: str = MODE_PHASE,
            channel_phase: float = 0.0) -> WsUnitConfig:
    """WsUnitConfig with the conventional detunings for each mode."""
    if mode == MODE_PHASE:
        det = (0.0, 0.0)
    elif mode == MODE_PASS:
        lw = max(demux.linewidth_fwhm, mux.linewidth_fwhm)
        det = (PASS_DETUNING_LINEWIDTHS * lw, -PASS_DETUNING_LINEWIDTHS * lw)
    else:  # STOP: align the demux ring only
        det = (0.0, PASS_DETUNING_LINEWIDTHS * mux.linewidth_fwhm)
    return WsUnitConfig(demux, mux, channel_phase, mode, det)


def _detuned_ports(probe_wavelength, ring: RingParams, detuning):
    """Ring ports with the resonance moved ``detuning`` off its nominal wavelength."""
    return _ring_ports(probe_wavelength, ring, ring.resonance_wavelength + detuning)


def _unit_ports(probe_wavelength, unit: WsUnitConfig, extra_detunings=(0.0, 0.0)):
    """(demux, mux) ring ports of a unit at its detunings plus ``extra_detunings``."""
    dd, dm = unit.detunings
    return (_detuned_ports(probe_wavelength, unit.demux, dd + np.asarray(extra_detunings[0])),
            _detuned_ports(probe_wavelength, unit.mux, dm + np.asarray(extra_detunings[1])))


def _ws_output(mode: str, channel_phase: float, demux_ports, mux_ports):
    """Bus output t_M t_D + d_M e^{i Phi} d_D of a unit from its ring ports;
    in STOP mode the dropped light is absorbed and only t_M t_D survives."""
    (t_d, d_d), (t_m, d_m) = demux_ports, mux_ports
    if mode == MODE_STOP:
        return t_m * t_d
    return t_m * t_d + d_m * np.exp(1j * channel_phase) * d_d


def ws_unit_response(probe_wavelength, unit: WsUnitConfig, extra_detunings=(0.0, 0.0)):
    """Bus-output amplitude of a WS unit; broadcasts over wavelength arrays.

    PHASE/PASS: t_M t_D + d_M e^{i Phi} d_D.  STOP: the dropped light is
    absorbed, so only the through product survives.
    """
    return _ws_output(unit.mode, unit.channel_phase,
                      *_unit_ports(probe_wavelength, unit, extra_detunings))


MODEL_IDEAL = "IDEAL"
MODEL_PHYSICAL = "PHYSICAL"


@dataclass(frozen=True)
class WsChannel:
    """A WS unit assigned to one lattice bin.

    ``unit`` may be omitted for the IDEAL model, where only ``phase`` and
    ``mode`` matter.
    """

    bin_index: int
    phase: float = 0.0
    mode: str = MODE_PHASE
    unit: WsUnitConfig | None = None


def ws_operator(channels, lattice: FrequencyLattice, model: str = MODEL_IDEAL) -> ModeOperator:
    """Diagonal operator of the full four-channel (or extended) waveshaper.

    IDEAL: exp(i Phi) on PHASE bins, 1 on PASS/untouched bins, 0 on STOP
    bins.  PHYSICAL: the complex WS-unit response sampled at the bin center,
    including channel loss.
    """
    if model not in (MODEL_IDEAL, MODEL_PHYSICAL):
        raise InvalidArgumentError(f"unknown WS model {model!r}")
    diag = np.ones(lattice.size, dtype=complex)
    seen = set()
    for ch in channels:
        if ch.bin_index in seen:
            raise InvalidArgumentError(f"duplicate WS channel on bin {ch.bin_index}")
        seen.add(ch.bin_index)
        idx = lattice.index_of(ch.bin_index)
        if model == MODEL_IDEAL:
            if ch.mode == MODE_STOP:
                diag[idx] = 0.0
            elif ch.mode == MODE_PHASE:
                diag[idx] = np.exp(1j * ch.phase)
        else:
            if ch.unit is None:
                raise InvalidArgumentError("PHYSICAL model requires a WsUnitConfig per channel")
            unit = ch.unit
            if unit.channel_phase != ch.phase or unit.mode != ch.mode:
                unit = ws_unit(unit.demux, unit.mux, ch.mode, ch.phase)
            lam = lattice.bin_wavelength(ch.bin_index)
            diag[idx] = ws_unit_response(lam, unit)
    return ModeOperator(lattice, np.diag(diag), label=f"WS[{model}]")


def mzi_pump_filter(probe_frequency, fsr: float, extinction: float, phase_offset: float = 0.0):
    """Asymmetric-MZI power transmission in [0, 1]; broadcasts over frequency."""
    if fsr <= 0:
        raise InvalidArgumentError("pump-filter FSR must be positive")
    if extinction <= 0:
        raise InvalidArgumentError("extinction must be positive (dB)")
    floor = 10.0 ** (-extinction / 10.0)
    return floor + (1.0 - floor) * np.sin(np.pi * np.asarray(probe_frequency) / fsr
                                          + phase_offset) ** 2
