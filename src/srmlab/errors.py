"""Exception types shared across the library.

Every failure derives from exactly one of two classes: ``InputError`` for
arguments, priors and files that are out of range or malformed, and
``NumericalError`` for matrices and searches that fail numerically. The CLI
maps the first to exit code 2 and the second to exit code 3.
"""


class SrmLabError(Exception):
    """Base class for all library-specific failures."""


class InputError(SrmLabError):
    """An argument, prior or input file is out of range or malformed."""


class NumericalError(SrmLabError):
    """A matrix or search fails numerically on well-formed input."""


class NotHermitian(NumericalError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class ConvergenceFailure(NumericalError):
    """The iterative eigensolver failed to converge."""


class InvalidPrior(InputError):
    """Prior probabilities are out of range or incorrectly normalized."""


class GramSingular(NumericalError):
    """The weighted Gram matrix is singular; the states are not linearly independent."""


class SingularFactor(NumericalError):
    """A candidate measurement factor has a vanishing diagonal entry."""


class NotBlockDiagonal(NumericalError):
    """A Gram matrix is not block diagonal with respect to the declared partition."""


class ReducibleBlock(NumericalError):
    """A declared diagonal block is reducible; the partition must be refined."""


class InvalidFactorization(NumericalError):
    """A candidate factor does not reproduce the Gram matrix."""


class DomainError(InputError):
    """An argument is outside the domain of a closed-form evaluator."""


class GramFileError(InputError):
    """A Gram description file could not be parsed or validated."""
