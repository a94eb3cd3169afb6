"""Exception types shared across the package.

Each class states the exit code and stderr label of its errors: the CLI prints
`<label>: <message>` and exits with `exit_code` (0 is success). An OSError,
ArithmeticError or MemoryError exits with ConfigError's code.
"""


class CorrdecayError(Exception):
    """Base class for all package errors."""
    exit_code, label = 2, "error"


class ConfigError(CorrdecayError):
    """Invalid user input: bad spec fields, malformed config, unknown keys."""
    label = "config error"


class PhysicsValidationError(CorrdecayError):
    """A physical invariant failed (e.g. decoherence matrix not PSD)."""
    exit_code, label = 3, "physics validation error"


class CoincidentEmittersError(PhysicsValidationError):
    """Two emitters at the same position; the pair propagator is singular."""

    def __init__(self, i, j, message=None):
        self.indices = (i, j)
        super().__init__(message or f"coincident emitter positions at indices {i}, {j}")


class DivergentModeError(CorrdecayError):
    """Wavevector exactly on the light line where the planar rate diverges."""


class SolverConvergenceError(CorrdecayError):
    """An iterative result is not converged: its step budget ran out or its gap stayed open."""
    exit_code, label = 4, "solver error"


class CertificateError(SolverConvergenceError):
    """A solver result violates an analytic certificate; indicates a solver bug."""
