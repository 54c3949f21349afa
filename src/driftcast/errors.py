"""Exception and warning types shared across the package.

Two errors, one per exit code of the CLI: bad input or configuration
raises :class:`DriftcastError` (exit 2), non-finite data or a diverged fit
raises :class:`NumericError` (exit 3).
"""


class DriftcastError(ValueError):
    """Bad input or configuration; the message says what is wrong."""


class NumericError(DriftcastError):
    """Non-finite data, an overflowing sum, or a fit without a finite loss."""


class DriftcastWarning(UserWarning):
    """Base class for all warnings issued by this package."""


class DidNotConverge(DriftcastWarning):
    """Coordinate descent hit max_iter with coefficient changes >= tol."""


class PostDriftTooShort(DriftcastWarning):
    """Post-drift segment below model minimums; fell back to baseline."""
