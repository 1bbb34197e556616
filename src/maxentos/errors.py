"""Exception types shared across the package."""


class MaxentError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidMarginal(MaxentError):
    """A marginal specification is mathematically invalid."""


class OutOfPsi(MaxentError):
    """A kernel was evaluated outside its support intervals."""


class NotAbsolutelyContinuous(MaxentError):
    """The requested density does not exist (singular component present)."""


class NotInF0(MaxentError):
    """The marginal vector is outside the admissible class F_d^0."""


class Degenerate(MaxentError):
    """The maximum-entropy problem degenerates (entropy is -infinity)."""


class RootBracketFailure(MaxentError):
    """A root bracket could not be established, or did not close within its reads."""


class DimensionTooLarge(MaxentError):
    """Tensor quadrature was requested above the supported dimension."""
