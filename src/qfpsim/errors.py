"""Exception types shared across the simulator."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class OutOfRangeError(ValueError):
    """A requested operating point is outside the achievable interval."""


class FitFailureError(RuntimeError):
    """A least-squares fit did not converge; message carries diagnostics."""


class DegenerateScanError(RuntimeError):
    """An alignment scan produced no usable signal (e.g. zero dither)."""


class ReconstructionFailureError(RuntimeError):
    """Scattering-matrix reconstruction found inconsistent spectra."""


class RetrievalFailureError(RuntimeError):
    """Phase retrieval failed to converge from every starting point."""


class UndefinedFidelityError(ArithmeticError):
    """Fidelity is undefined because the success probability is zero."""


class NonFiniteResultError(ArithmeticError):
    """A result is NaN or infinite and cannot be written as strict JSON."""
