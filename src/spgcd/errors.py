"""Exception types shared across the package."""


class SpgcdError(Exception):
    """Base class for all spgcd errors."""


class InvalidInput(SpgcdError):
    """Caller violated a precondition (zero input, mismatched fields, ...)."""


class DivisionByZero(SpgcdError, ZeroDivisionError):
    """Inversion of the zero element."""


class ZeroPolynomial(SpgcdError):
    """Operation requires a nonzero polynomial."""


class ZeroScale(SpgcdError):
    """Diversification vector contains a zero coordinate."""


class BudgetExceeded(SpgcdError):
    """Instance too large for the dense oracle."""


class InterpolationError(SpgcdError):
    """Base class for retryable sparse-interpolation failures."""


class NotAPower(InterpolationError):
    """Element is not omega^e for any e within the bound."""


class RootDeficit(InterpolationError):
    """Fewer roots than the degree; evaluation point was bad."""


class SingularSystem(InterpolationError):
    """Transposed Vandermonde nodes collide."""


class LengthMismatch(InterpolationError):
    """A shifted evaluation row does not follow the base row's recurrence."""


class ReEvaluationFailed(InterpolationError):
    """Assembled polynomial does not reproduce its own evaluations."""


class GcdFailure(SpgcdError):
    """Primitive GCD gave up after exhausting its retries."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause
