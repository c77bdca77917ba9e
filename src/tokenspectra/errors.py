"""Exception types shared across the library."""


class ParameterDomainError(ValueError):
    """Parameters (n, k, r) fall outside an operation's domain."""


class SizeLimitError(ValueError):
    """A dense computation would exceed the desk-scale size cap."""


class NumericFailureError(RuntimeError):
    """An eigensolver failed or a numerical invariant broke."""


class PoleError(ArithmeticError):
    """A denominator of ``contfrac_q1`` vanishes (or nearly vanishes)."""


class PhaseConsistencyError(RuntimeError):
    """A quotient eigenvector cannot be unrolled on a short orbit.

    Raised only when a vector with a nonzero component on a short orbit
    reaches the lifting stage, which indicates a filtering bug upstream.
    """


class CountMismatchError(RuntimeError):
    """An assembled spectrum does not have the expected cardinality."""
