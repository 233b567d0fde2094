"""Exception types shared across the package."""


class GaussKeyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(GaussKeyError, ValueError):
    """An argument violates a documented precondition."""


class NotPSD(GaussKeyError):
    """A matrix that must be positive semidefinite has a significantly
    negative eigenvalue."""


class EvaluationError(GaussKeyError):
    """An objective function returned a non-finite value."""

    def __init__(self, x):
        self.x = x
        super().__init__(f"objective returned a non-finite value at x={x!r}")


class IllConditioned(GaussKeyError):
    """A matrix is too close to singular for the requested operation."""


class OutcomeUnlikely(GaussKeyError):
    """A conditional slice has near-zero probability mass."""


class GridTooSmall(GaussKeyError):
    """A position grid does not span enough standard deviations of the state."""
