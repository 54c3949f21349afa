"""Exception and warning types shared across the package."""


class DriftcastError(Exception):
    """Base class for all errors raised by this package."""


# --- data ingestion / frames ---

class EmptyFile(DriftcastError):
    """CSV contains a header but no data rows (or nothing at all)."""


class MissingColumn(DriftcastError):
    """A required column is absent from the file or frame."""


class UnknownColumn(MissingColumn):
    """A named column does not exist in the frame."""


class UnparseableTimestamp(DriftcastError):
    """A timestamp cell is neither ISO-8601 nor epoch seconds."""


class DuplicateTimestamp(DriftcastError):
    """Two rows share the same instant."""


class LeadingGap(DriftcastError):
    """forward_fill has nothing to fill from: the first value is missing."""


class TooFewRows(DriftcastError):
    """Not enough rows for the requested operation."""


# --- changepoint detection ---

class SeriesTooShort(DriftcastError):
    """Series shorter than 2 * min_size; no admissible segmentation."""


class SegmentTooShort(DriftcastError):
    """Segment shorter than the cost model's minimum length."""


class NonFiniteValues(DriftcastError):
    """A series handed to detection holds NaN or infinite values."""


# --- feature engineering ---

class LagExceedsLength(DriftcastError):
    """A lag offset is not a positive integer below the series length."""


class WindowTooSmall(DriftcastError):
    """Rolling window must cover at least two observations."""


class UnsupportedDegree(DriftcastError):
    """Polynomial expansion supports degree 1 (identity) and 2 only."""


# --- models ---

class ShapeMismatch(DriftcastError):
    """Matrix/vector dimensions do not line up."""


class NonFiniteLoss(DriftcastError):
    """Training diverged, or no candidate model scored a finite loss."""


# --- metrics ---

class LengthMismatch(DriftcastError):
    """y and y_hat have different lengths."""


class EmptyInput(DriftcastError):
    """Metric called on zero observations."""


class ZeroVariance(DriftcastError):
    """R^2 is undefined for a constant target."""


# --- configuration ---

class InvalidConfig(DriftcastError, ValueError):
    """A configuration value lies outside its allowed range."""


# --- pipeline / comparison ---

class MismatchedTestBlocks(DriftcastError):
    """Reports being compared were not evaluated on identical test data."""


class InvalidRange(DriftcastError):
    """A configured time range is empty or reversed."""


# --- warnings (recoverable states) ---

class DidNotConverge(UserWarning):
    """Coordinate descent hit max_iter with coefficient changes >= tol."""


class PostDriftTooShort(UserWarning):
    """Post-drift segment below model minimums; fell back to baseline."""
