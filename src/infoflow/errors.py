"""Exception hierarchy for infoflow.

Every error class carries the process exit code the CLI returns for it:
each estimation or simulation failure has its own code, 3 to 6.  A bad
argument or input file is a ValueError and a file that cannot be opened,
read or written an OSError naming it; the CLI exits 2 for both.
"""


class InfoflowError(Exception):
    """Base class for all infoflow errors."""

    exit_code = 1


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
