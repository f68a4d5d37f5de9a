"""Reference device constants used as CLI defaults.

These mirror the characterized hardware values of the experiment the
simulator reproduces; every number can be overridden per run from the
JSON config.
"""

# optical lattice
CENTER_FREQUENCY = 193.7e12       # Hz, ~1547.7 nm carrier
BIN_SPACING = 13.25e9             # Hz, comb spacing of the primary source
DEFAULT_HALF_WIDTH = 16           # bins each side of center

# modulators
WORKING_DEPTH = 0.8169            # rad, 50/50-point modulation depth
WALK_DEPTH = 0.8                  # rad, quantum-walk drive depth

# microrings
POWER_COUPLING = 0.023            # kappa^2 per coupler
LOSS_DB_PER_CM = 1.2              # propagation loss
RING_RADIUS = 50e-6               # m
EFFECTIVE_INDEX = 2.8

# pump filter
PUMP_FILTER_FSR = 500e9           # Hz
PUMP_FILTER_EXTINCTION_DB = 30.0

# photon counting
CAR = 55.0                        # coincidence-to-accidental ratio
GUARD_SUPPRESSION_DB = 13.5       # comb-line suppression of the guard bands
NUM_COMB_PAIRS = 6
