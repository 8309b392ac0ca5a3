"""Exception types shared across the package."""


class ConstraintViolationError(ValueError):
    """Input rejected because a construction constraint is violated."""


class SingularPointError(ValueError):
    """An event lies on (or too close to) the singular set of a conformal map.

    Carries the offending denominator value in ``residual``; a batched
    evaluation also sets ``index``, the first offending row.
    """

    def __init__(self, message, residual=None, point=None, index=None):
        super().__init__(message)
        self.residual = residual
        self.point = point
        self.index = index


class PoleError(ValueError):
    """Evaluation requested at a pole of a fractional-linear map or spectrum."""


class BoundaryError(ValueError):
    """Evaluation requested where a step function is undefined (zero frequency)."""


class InternalConsistencyError(RuntimeError):
    """Two independent evaluation routes disagree beyond tolerance."""


class ConvergenceError(RuntimeError):
    """A numerical quadrature or iteration failed to converge."""
