"""Exception hierarchy for infoflow.

Every error class carries the process exit code the CLI returns for it.
The input and output errors, ParseError and OutputError, share code 2 with
the CLI's bad-argument ValueError; each estimation or simulation failure
has its own code, 3 to 6.
"""


class InfoflowError(Exception):
    """Base class for all infoflow errors."""

    exit_code = 1


class ParseError(InfoflowError):
    """An input file that cannot be opened or read, or is malformed (not UTF-8,
    ragged rows, non-numeric cells, NaN, too few rows); the text starts with its path."""

    exit_code = 2


class OutputError(InfoflowError):
    """An output file could not be written (missing directory, no permission)."""

    exit_code = 2


class DegenerateInputError(InfoflowError):
    """Input data unusable for estimation: a constant series, one that
    varies only by rounding noise, values too close to the float64 limit to
    centre, or rates outside float64 at the time unit k dt."""

    exit_code = 3


class SingularCovarianceError(InfoflowError):
    """The equilibrated sample covariance matrix is singular or numerically
    near-singular."""

    exit_code = 4


class SingularInformationError(InfoflowError):
    """Observed information matrix is singular: a zero residual variance."""

    exit_code = 5


class DivergenceError(InfoflowError):
    """A simulated trajectory blew up to non-finite or huge values."""

    exit_code = 6
