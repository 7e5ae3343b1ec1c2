"""Exception types shared across the package.

Everything raised on purpose derives from NumradError, so callers can catch
one type at the boundary.  Validation errors carry enough context in the
message to be actionable without a debugger.
"""


class NumradError(Exception):
    """Base class for all package errors."""


class NotSquareError(NumradError):
    """Operation requires a square matrix."""


class NotHermitianError(NumradError):
    """Matrix fails the Hermitian check beyond tolerance."""


class NotPositiveDefiniteError(NumradError):
    """Matrix is not positive definite to working precision."""


class NonFiniteError(NumradError, ValueError):
    """A matrix, given or formed on the way, has NaN or infinite entries."""


class DimensionMismatchError(NumradError):
    """Operand shapes are incompatible."""


class DomainViolationError(NumradError):
    """Spectrum leaves the domain of the requested scalar function."""


class NotIsometryError(NumradError):
    """Compression map V does not satisfy V*V = I."""


class HypothesisViolatedError(NumradError):
    """Inputs break a hard precondition of the requested check."""


class InvalidSpecError(NumradError):
    """Malformed configuration value (function name, parameter, ensemble)."""


class UnknownBoundIdError(NumradError):
    """Bound identifier not present in the catalog."""


class IncompatibleBoundsError(NumradError):
    """Requested comparison needs bounds with matching input arity."""
