"""Exception types shared across the simulator."""


class PhysicsError(Exception):
    """Base of the failures of the physics itself (the CLI's exit 3), as
    opposed to a bad argument or config."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class OutOfRangeError(ValueError, PhysicsError):
    """A requested operating point is outside the achievable interval."""


class FitFailureError(RuntimeError, PhysicsError):
    """A least-squares fit did not converge; message carries diagnostics."""


class DegenerateScanError(RuntimeError, PhysicsError):
    """An alignment scan gave no usable signal or did not bracket its peak."""


class ReconstructionFailureError(RuntimeError, PhysicsError):
    """Scattering-matrix reconstruction found inconsistent spectra."""


class RetrievalFailureError(RuntimeError, PhysicsError):
    """Phase retrieval found no phases that fit the measured grids."""


class UndefinedFidelityError(ArithmeticError, PhysicsError):
    """Fidelity is undefined because the success probability is zero."""


class NonFiniteResultError(ArithmeticError, PhysicsError):
    """A result is NaN or infinite and cannot be written as strict JSON."""
