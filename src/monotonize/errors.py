"""Exception taxonomy shared across the package.

Two families. ValidationError marks inputs that violate a documented
precondition and maps to CLI exit code 1. NumericalError marks failures that
arise while computing (non-convergence, degenerate data) and maps to exit
code 2.
"""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class NumericalError(RuntimeError):
    """A computation failed or its result cannot be trusted."""


# --- input validation ------------------------------------------------------


class ShapeMismatchError(ValidationError):
    """Array shapes do not agree with each other or with the grid."""


class NonFiniteValueError(ValidationError):
    """A value is NaN or infinite where a finite number is required."""


class NonIncreasingAxisError(ValidationError):
    """Axis coordinates are not strictly increasing."""


class GridMismatchError(ValidationError):
    """Two gridded functions do not share the same axes."""


class EmptyInputError(ValidationError):
    """A non-empty sequence is required."""


class OutOfRangeError(ValidationError):
    """A scalar parameter lies outside its admissible range."""


class NonEquidistantAxisError(ValidationError):
    """The operation needs equal grid spacing along the target axis."""


class AxisOutOfRangeError(ValidationError):
    """An axis number is not one of 1..d."""


class InvalidOrderingError(ValidationError):
    """An axis ordering is not a permutation of 1..d, or repeats an entry."""


class EmptyOrderingSetError(ValidationError):
    """No axis orderings were supplied where at least one is required."""


class InfeasibleConstraintError(ValidationError):
    """The separation constraint cannot be met inside the given interval."""


class NonPositiveWeightError(ValidationError):
    """Weights must be strictly positive."""


class LambdaOutOfRangeError(ValidationError):
    """A blending weight must lie in [0, 1]."""


class NegativeStderrError(ValidationError):
    """Standard errors must be non-negative."""


class TooFewDrawsError(ValidationError):
    """At least two bootstrap draws are required."""


class CrossingBandError(ValidationError):
    """A band's lower end-point exceeds its upper end-point somewhere."""


class EmptyWindowError(ValidationError):
    """A local window contains too few data points to fit."""


class OutOfDomainError(ValidationError):
    """An evaluation point lies outside the basis domain."""


class CsvFormatError(ValidationError):
    """A CSV file does not follow the documented wire format."""


# --- numerical failures ----------------------------------------------------


class RankDeficientDesignError(NumericalError):
    """A series design matrix does not have full column rank."""


class AllNodesDegenerateError(NumericalError):
    """Every grid node has a near-zero standard error."""


class TooManyFailedDrawsError(NumericalError):
    """More than a tenth of the requested bootstrap draws failed."""


class ImprovementViolationError(NumericalError):
    """A monotonized estimate came out worse than the original.

    The improvement inequalities hold exactly in exact arithmetic, so a
    violation beyond floating-point tolerance indicates a bug rather than bad
    luck, and the experiment aborts instead of averaging over it.
    """
