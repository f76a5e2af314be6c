"""Exception types raised across the library.

Numerical degeneracy (a scatter or scale matrix that is not positive
definite) is always reported as a structured error, never as a NaN
that propagates silently into scores.
"""


class GaussetError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(GaussetError):
    """A Cholesky pivot fell below the scale-relative tolerance."""


class DegenerateScatter(GaussetError):
    """The scatter-like matrix needed for scoring or evidence is singular.

    Typical cause: too few training patterns relative to the feature
    dimension under a non-informative prior.
    """


class InsufficientDof(GaussetError):
    """Degrees of freedom too small for the predictive density to exist."""


class DimensionMismatch(GaussetError, ValueError):
    """A vector or matrix argument has the wrong length for the model."""


class ShapeMismatch(GaussetError, ValueError):
    """Two container arguments disagree in shape."""


class DomainError(GaussetError, ValueError):
    """A scalar argument lies outside the mathematical domain."""


class EmptyDimension(GaussetError, ValueError):
    """The dataset has zero feature columns."""


class ParseError(GaussetError):
    """A CSV cell failed to parse. Carries the file location."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column!r})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class NonFiniteValue(ParseError):
    """A CSV cell parsed to NaN or infinity."""


class AllZeroPrior(GaussetError, ValueError):
    """Every class prior probability is zero."""


class ImproperPrior(GaussetError, ValueError):
    """The prior is improper where a proper one is required."""
