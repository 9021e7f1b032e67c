"""Exception types shared across the library.

Every failure that srmlab raises is one of these classes, and each derives
from exactly one of two: ``InputError`` for arguments, priors and files
that are out of range or malformed, and ``NumericalError`` for matrices and
searches that fail numerically. ``InputError`` is also a ``ValueError``, as
``json.JSONDecodeError`` is, so a caller that catches ``ValueError`` from a
builder still catches it. The CLI maps the first to exit code 2 and the
second to exit code 3; its ``ValueError`` and ``ArithmeticError`` arms
catch what numpy and the standard library raise on extreme input.
"""


class SrmLabError(Exception):
    """Base class for all library-specific failures."""


class InputError(SrmLabError, ValueError):
    """An argument, prior or input file is out of range or malformed."""


class NumericalError(SrmLabError):
    """A matrix or search fails numerically on well-formed input."""


class ConvergenceFailure(NumericalError):
    """The iterative eigensolver failed to converge."""


class InvalidPrior(InputError):
    """Prior probabilities are out of range or incorrectly normalized."""


class GramSingular(NumericalError):
    """The weighted Gram matrix is singular; the states are not linearly independent."""


class NotBlockDiagonal(NumericalError):
    """A Gram matrix is not block diagonal with respect to the declared partition."""


class DomainError(InputError):
    """A scheme parameter or argument is outside the domain of its builder or evaluator."""


class GramFileError(InputError):
    """A Gram description file could not be parsed or validated."""
