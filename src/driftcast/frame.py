"""Timestamped numeric tables: CSV ingestion, cleaning, splitting, scaling.

The :class:`TimeSeriesFrame` is the carrier every other module consumes.
Timestamps are stored as int64 epoch seconds (naive instants, no time-zone
arithmetic); values are float64 with ``NaN`` as the explicit missing marker.
All operations return new frames; arrays inside a frame are write-protected.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from . import serialize
from .errors import DriftcastError, NumericError

HOUR = 3600
_EPOCH = datetime(1970, 1, 1)
_FIRST_SECOND = (datetime.min - _EPOCH) // timedelta(seconds=1)
_LAST_SECOND = (datetime.max - _EPOCH) // timedelta(seconds=1)

log = logging.getLogger(__name__)

# Floor substituted for the standard deviation of zero-variance columns so
# scaling never divides by zero.
STD_FLOOR = 1e-8
# Rows per block where a fit or a prediction standardizes its design, so no
# standardized copy of a whole design exists. Whole copies, one per
# expanding CV fold, left glibc's heap 11 MB larger on a degree-2 lasso CV.
BLOCK_ROWS = 2048
# Most rows an hourly axis may hold: over 1,100 years, and 80 MB per
# column. Longer axes are refused before anything of their size exists.
MAX_HOURLY_ROWS = 10_000_000
# Header of the timestamp column that load_csv reads by default and write_csv writes.
TIMESTAMP_COLUMN = "timestamp"


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a`` (C-contiguous): the caller's array stays writable."""
    view = np.ascontiguousarray(a).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Immutable table of named float64 columns on a shared time axis.

    Parameters
    ----------
    timestamps : np.ndarray
        int64 epoch seconds, strictly increasing.
    columns : dict[str, np.ndarray]
        Column name -> float64 vector, all of length ``len(timestamps)``.
    """

    timestamps: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        if ts.ndim != 1:
            raise DriftcastError("timestamps must be one-dimensional")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            if np.any(np.diff(ts) == 0):
                raise DriftcastError("timestamps contain duplicates")
            raise DriftcastError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", _readonly(ts))
        cols = {}
        for name, values in self.columns.items():
            if not name:
                raise DriftcastError("column names must be non-empty")
            v = np.asarray(values, dtype=np.float64)
            if v.shape != ts.shape:
                raise DriftcastError(f"column {name!r} has length {v.size}, expected {ts.size}")
            cols[name] = _readonly(v)
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return int(self.timestamps.size)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DriftcastError(f"no column named {name!r}")
        return self.columns[name]

    @property
    def datetimes(self) -> np.ndarray:
        """Timestamps as numpy datetime64[s] (for display/plots)."""
        return self.timestamps.astype("datetime64[s]")

    def is_hourly(self) -> bool:
        return self.n < 2 or bool(np.all(np.diff(self.timestamps) == HOUR))

    def with_columns(self, **extra: np.ndarray) -> "TimeSeriesFrame":
        cols = dict(self.columns)
        cols.update(extra)
        return TimeSeriesFrame(self.timestamps, cols)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/test split at ``floor(train_fraction * n)``."""

    train_fraction: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DriftcastError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}")

    def boundary(self, n: int) -> int:
        return int(math.floor(self.train_fraction * n))


@dataclass(frozen=True)
class Scaler:
    """Z-score parameters: population mean and std, the std floored at
    ``STD_FLOOR``.

    Fit only on training rows; applying then inverting recovers the input
    to within 1e-10 relative.
    """

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", _readonly(np.asarray(self.means, float)))
        object.__setattr__(self, "stds", _readonly(np.asarray(self.stds, float)))

    @classmethod
    def fit(cls, values: np.ndarray) -> "Scaler":
        """Statistics of a (n, k) matrix per column, or of a (n,) vector.

        Both reduce along axis 0, so the bits match ``values.mean(axis=0)``
        and ``values.std(axis=0)``; a vector gives one-element statistics.
        A C-ordered matrix of two or more columns has its deviations
        squared :data:`BLOCK_ROWS` rows at a time, so no temporary is as
        large as ``values``. Non-finite statistics (non-finite cells, or a
        sum of squares that overflows) raise :class:`NumericError`.
        """
        values = np.asarray(values, float)
        means = values.mean(axis=0)
        if values.ndim == 2 and values.shape[1] > 1 and values.flags.c_contiguous:
            stds = _std_by_row_blocks(values, means)
        else:  # numpy sums a lone or a contiguous column pairwise
            stds = values.std(axis=0)
        stds = np.maximum(stds, STD_FLOOR)
        if not np.isfinite(stds).all():
            raise NumericError("cannot standardize: values are not finite or overflow")
        return cls(means, stds)

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Scale a (n, k) matrix or (n,) vector laid out like the fitted one.

        Divides the centered copy in place, so only one array of the
        input's size is allocated; the bits are those of ``(v - m) / s``.
        """
        out = np.subtract(np.asarray(values, float), self.means)
        out /= self.stds
        return out

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, float) * self.stds + self.means


def _std_by_row_blocks(values: np.ndarray, means: np.ndarray) -> np.ndarray:
    """``values.std(axis=0)`` of a C-ordered matrix of two or more columns,
    squaring its deviations from ``means`` :data:`BLOCK_ROWS` rows at a time
    in one buffer.

    numpy sums such a matrix along axis 0 one row after another, so a
    block's first row takes on the sum of the rows before it and the bits
    stay the same. A square is never -0.0, so the sum may start from zeros.
    """
    n, k = values.shape
    total, buf = np.zeros(k), np.empty((min(n, BLOCK_ROWS), k))
    for first in range(0, n, BLOCK_ROWS):
        rows = values[first:first + BLOCK_ROWS]
        dev = np.subtract(rows, means, out=buf[:len(rows)])
        dev *= dev
        dev[0] += total
        total = np.add.reduce(dev, axis=0)
    return np.sqrt(total / n)


def _check_epoch(seconds, name: str, value) -> None:
    """Raise unless ``seconds`` lies in the years 1 to 9999 that ``datetime`` holds."""
    if not _FIRST_SECOND <= seconds <= _LAST_SECOND:
        raise DriftcastError(f"{name} {value!r} is outside 0001-01-01 to 9999-12-31 UTC")


def hourly_axis(first: int, last: int) -> np.ndarray:
    """Epoch seconds every hour from ``first`` through ``last``; an axis
    longer than :data:`MAX_HOURLY_ROWS` raises :class:`DriftcastError`."""
    rows = (last - first) // HOUR + 1
    if rows > MAX_HOURLY_ROWS:
        span = " to ".join(np.datetime_as_string(np.datetime64(int(s), "s"))
                           for s in (first, last))
        raise DriftcastError(f"an hourly axis from {span} has {rows:,} rows, "
                             f"more than the {MAX_HOURLY_ROWS:,} supported")
    return np.arange(first, last + 1, HOUR, dtype=np.int64)


def _parse_timestamp(cell: str) -> int:
    text = cell.strip()
    if not text:
        raise DriftcastError("empty timestamp cell")
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        try:
            seconds = round(float(text))
        except (ValueError, OverflowError):  # not a number, or nan / inf
            raise DriftcastError(f"cannot parse timestamp {cell!r}") from None
    else:
        # apply the UTC offset to the timedelta: shifting dt could leave its range
        offset = dt.utcoffset()
        since_epoch = dt - _EPOCH if offset is None else dt.replace(tzinfo=None) - _EPOCH - offset
        seconds = int(since_epoch.total_seconds())
    _check_epoch(seconds, "timestamp", cell)
    return seconds


def _parse_value(cell: str) -> float:
    try:
        value = float(cell)  # float() ignores surrounding whitespace itself
    except ValueError:
        try:
            # str.strip() also drops the separators \x1c-\x1f, float() does not
            value = float(cell.strip())
        except ValueError:
            return math.nan  # empty and non-numeric cells become missing markers
    return value if math.isfinite(value) else math.nan  # and so does +-inf


def load_csv(path, timestamp_column: str = TIMESTAMP_COLUMN) -> TimeSeriesFrame:
    """Load a UTF-8 comma-separated file into a :class:`TimeSeriesFrame`.

    Parameters
    ----------
    path : str or Path
        File with a header row; one column holds timestamps (ISO-8601 or
        epoch seconds), the rest numeric values. Empty, non-numeric and
        infinite (``inf``, ``-inf``) cells become missing markers (NaN),
        which :func:`forward_fill` treats like any other gap. Columns
        whose header cell is blank (as a trailing comma leaves) are skipped.
    timestamp_column : str
        Header name of the timestamp column.

    Returns
    -------
    TimeSeriesFrame
        Sorted by timestamp.

    Raises
    ------
    DriftcastError
        Not UTF-8, no header or data rows, no timestamp column, a column
        named twice, a row too short to hold a timestamp, or an unparseable
        or duplicate timestamp.
    """
    rows = serialize.read_csv(path)
    try:
        header = next(rows)
    except StopIteration:
        raise DriftcastError(f"{path}: no header row") from None
    if timestamp_column not in header:
        raise DriftcastError(f"{path}: no {timestamp_column!r} column in header {header}")
    ts_idx = header.index(timestamp_column)
    col_idx = {h: header.index(h) for h in header if h and h != timestamp_column}

    # C arrays, not lists: no Python object per parsed cell outlives its row
    stamps = array("q")
    data = {name: array("d") for name in col_idx}
    # bound once: this loop runs once per row
    add_stamp, parse_stamp, parse_value = stamps.append, _parse_timestamp, _parse_value
    appends = [(data[name].append, idx) for name, idx in col_idx.items()]
    for row in rows:
        if not "".join(row).strip():  # no cells, or only blank ones
            continue
        try:
            cell = row[ts_idx]
        except IndexError:
            raise DriftcastError(f"{path}: row {len(stamps) + 1} has no "
                                 f"{timestamp_column!r} cell") from None
        add_stamp(parse_stamp(cell))
        for append, idx in appends:
            append(parse_value(row[idx]) if idx < len(row) else math.nan)

    if not stamps:
        raise DriftcastError(f"{path}: no data rows")

    ts = np.asarray(stamps, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    if np.any(np.diff(ts) == 0):
        where = int(np.flatnonzero(np.diff(ts) == 0)[0])
        raise DriftcastError(f"{path}: duplicate timestamp at epoch {int(ts[where])}")
    cols = {name: np.asarray(vals, float)[order] for name, vals in data.items()}
    missing = {name: int(np.isnan(v).sum()) for name, v in cols.items()}
    log.info("loaded %d rows from %s (missing cells: %s)", ts.size, path, missing)
    return TimeSeriesFrame(ts, cols)


def write_csv(frame: TimeSeriesFrame, path) -> None:
    """Write a frame with :func:`serialize.write_csv`: ISO timestamps,
    floats in their shortest round-trip text, ``nan`` for a missing value,
    CRLF line ends.
    ``load_csv(write_csv(frame))`` is value-identical.
    """
    names = list(frame.columns)
    serialize.write_csv(path, [TIMESTAMP_COLUMN, *names],
                        zip(np.datetime_as_string(frame.datetimes),
                            *(frame.columns[name].tolist() for name in names)))


def forward_fill(frame: TimeSeriesFrame, column: str) -> TimeSeriesFrame:
    """Replace missing values in ``column`` with the last present value.

    Raises :class:`DriftcastError` when the first value is missing (nothing to
    fill from). Idempotent; present values are never changed.
    """
    values = frame.column(column)
    missing = np.isnan(values)
    if not missing.any():
        return frame
    if missing[0]:
        raise DriftcastError(f"column {column!r} starts with a missing value")
    idx = np.arange(values.size)
    idx[missing] = 0
    np.maximum.accumulate(idx, out=idx)
    log.info("forward-filled %d missing values in %r", int(missing.sum()), column)
    return frame.with_columns(**{column: values[idx]})


def resample_hourly(frame: TimeSeriesFrame) -> TimeSeriesFrame:
    """Re-grid onto an exactly hourly axis from first to last timestamp.

    Grid points missing from the input get missing markers (fill them with
    :func:`forward_fill` afterwards); input rows that fall between grid
    points are dropped.
    """
    if frame.n == 0:
        return frame
    ts = frame.timestamps
    if frame.is_hourly():
        return frame
    grid = hourly_axis(int(ts[0]), int(ts[-1]))
    pos = np.searchsorted(ts, grid)
    pos = np.minimum(pos, ts.size - 1)
    hit = ts[pos] == grid
    cols = {}
    for name, values in frame.columns.items():
        out = np.full(grid.size, np.nan)
        out[hit] = values[pos[hit]]
        cols[name] = out
    log.info("resampled %d rows onto %d hourly grid points (%d matched)",
             frame.n, grid.size, int(hit.sum()))
    return TimeSeriesFrame(grid, cols)
