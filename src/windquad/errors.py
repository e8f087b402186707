"""Exception types shared across the package."""


class WindquadError(Exception):
    """Base class for all package-specific errors."""


class GimbalLock(WindquadError):
    """Euler extraction requested too close to pitch = +-pi/2."""


class DegenerateMatrix(WindquadError):
    """Matrix cannot be projected onto the rotation group."""


class RotorStopped(WindquadError):
    """Rotor speed fell below the minimum for a well-defined advance ratio."""


class NoConvergence(WindquadError):
    """Iterative solver failed to converge; carries the final residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NonFiniteWeights(WindquadError):
    """A network weight matrix has an infinite or NaN Frobenius norm."""


class DimensionMismatch(WindquadError):
    """Network weight / input dimensions are inconsistent."""


class DegenerateThrust(WindquadError):
    """Commanded acceleration vector vanished; no attitude can be extracted."""


class HeadingDegenerate(WindquadError):
    """Desired heading is parallel to the computed thrust axis."""


class ParseError(WindquadError):
    """Configuration file is syntactically invalid or has unknown keys."""


class ValidationError(WindquadError):
    """Configuration violates a documented invariant."""


class SimulationAbort(WindquadError):
    """Simulation stopped early; carries the step index and reason."""

    def __init__(self, step, reason):
        super().__init__(f"aborted at step {step}: {reason}")
        self.step = step
        self.reason = reason
