"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2,
PhysicsValidationError -> 3, SolverConvergenceError -> 4.
"""


class CorrdecayError(Exception):
    """Base class for all package errors."""


class ConfigError(CorrdecayError):
    """Invalid user input: bad spec fields, malformed config, unknown keys."""


class PhysicsValidationError(CorrdecayError):
    """A physical invariant failed (e.g. decoherence matrix not PSD)."""


class CoincidentEmittersError(PhysicsValidationError):
    """Two emitters at the same position; the pair propagator is singular."""

    def __init__(self, i, j, message=None):
        self.indices = (i, j)
        super().__init__(message or f"coincident emitter positions at indices {i}, {j}")


class DivergentModeError(CorrdecayError):
    """Wavevector exactly on the light line where the planar rate diverges."""


class SolverConvergenceError(CorrdecayError):
    """An iterative result is not converged: its step budget ran out or its gap stayed open."""


class CertificateError(SolverConvergenceError):
    """A solver result violates an analytic certificate; indicates a solver bug."""
