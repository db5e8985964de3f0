"""Exception types shared across the package.

Validation failures carry the name of the violated invariant and the
offending magnitude in their message, so callers can report precisely
what went wrong without re-deriving it.
"""


class ValidationError(ValueError):
    """A state, observable or parameter violates a declared invariant."""


class NotHermitianError(ValidationError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class TraceNotOneError(ValidationError):
    """Trace deviates from 1 beyond tolerance."""


class NotPositiveError(ValidationError):
    """Matrix has an eigenvalue below -tolerance, or an X-state coherence
    exceeds its positivity bound."""


class NegativePopulationError(ValidationError):
    """A diagonal population is below -tolerance."""


class NotXFormError(ValidationError):
    """Matrix carries weight outside the X sparsity pattern."""


class OutOfRangeError(ValidationError):
    """A scalar parameter lies outside its admissible interval."""


class BadDistributionError(ValidationError):
    """Mixing weights are negative or do not sum to 1."""


class ParseError(ValueError):
    """A textual literal (state, channel, grid, config) failed to parse."""


class UnsupportedChannelError(ValueError):
    """The operation is not defined for this channel, or for its rates on the RK4 path."""


class StepTooLargeError(RuntimeError):
    """Integrator output failed re-validation; reduce the step size."""


class EmptySetError(ValueError):
    """An asymptotic set with no members cannot be classified."""
