"""Exception hierarchy.

Two broad families matter to callers (and to the CLI's exit codes):

* :class:`InvalidInputError` and friends are *validation* failures -- the
  request itself is malformed (bad dimensions, off-boundary points, malformed
  domain documents, unsupported operations).
* :class:`NumericalError` and friends are *numerical* failures -- a solver did
  not converge, a quadrature is too coarse to be trusted, or a Monte Carlo run
  lost too many walks.
"""

from __future__ import annotations

__all__ = [
    "PoisskernError",
    "InvalidInputError",
    "DimensionMismatchError",
    "DomainUnsupportedError",
    "ProjectionAmbiguityError",
    "NumericalError",
    "ConvergenceError",
    "RefinementNeededError",
    "WalkTruncatedError",
    "EstimationFailureError",
]


class PoisskernError(Exception):
    """Base class for all library-specific errors."""


class InvalidInputError(PoisskernError, ValueError):
    """A precondition on user-supplied input is violated."""


class DimensionMismatchError(InvalidInputError):
    """A point or vector does not match the ambient dimension."""


class DomainUnsupportedError(InvalidInputError):
    """The requested operation is not available for this domain kind."""


class ProjectionAmbiguityError(PoisskernError, RuntimeError):
    """Two boundary feet are equidistant within tolerance.

    Raised instead of silently picking a side; callers inside the unique
    nearest-point collar never see this, and callers outside it can supply a
    tie-break direction.
    """


class NumericalError(PoisskernError, RuntimeError):
    """Base class for numerical failures (exit code 2 in the CLI)."""


class ConvergenceError(NumericalError):
    """An iterative solver exhausted its iteration budget."""


class RefinementNeededError(NumericalError):
    """A quadrature rule is too coarse for the requested evaluation point."""


class WalkTruncatedError(NumericalError):
    """A single walk exceeded its step budget or left the truncation region."""


class EstimationFailureError(NumericalError):
    """Too many walks were truncated for the estimate to be meaningful."""
