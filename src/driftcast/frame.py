"""Timestamped numeric tables: CSV ingestion, cleaning, splitting, scaling.

The :class:`TimeSeriesFrame` is the carrier every other module consumes.
Timestamps are stored as int64 epoch seconds (naive instants, no time-zone
arithmetic); values are float64 with ``NaN`` as the explicit missing marker.
All operations return new frames; arrays inside a frame are write-protected.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from . import serialize
from .errors import DriftcastError, NumericError

HOUR = 3600
_EPOCH = datetime(1970, 1, 1)

log = logging.getLogger(__name__)

# Floor substituted for the standard deviation of zero-variance columns so
# scaling never divides by zero.
STD_FLOOR = 1e-8


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


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
        Non-finite statistics (non-finite cells, or a sum of squares that
        overflows) raise :class:`NumericError`.
        """
        values = np.asarray(values, float)
        stds = np.maximum(values.std(axis=0), STD_FLOOR)
        if not np.isfinite(stds).all():
            raise NumericError("cannot standardize: values are not finite or overflow")
        return cls(values.mean(axis=0), stds)

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


def _parse_timestamp(cell: str) -> int:
    text = cell.strip()
    if not text:
        raise DriftcastError("empty timestamp cell")
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if dt.tzinfo is not None:
            dt = (dt - dt.utcoffset()).replace(tzinfo=None)
        return int((dt - _EPOCH).total_seconds())
    except ValueError:
        pass
    try:
        return int(round(float(text)))
    except ValueError:
        raise DriftcastError(f"cannot parse timestamp {cell!r}") from None


def _parse_value(cell: str) -> float:
    text = cell.strip()
    if not text:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        return math.nan  # non-numeric payloads become missing markers
    return value if math.isfinite(value) else math.nan  # and so does +-inf


def load_csv(path, timestamp_column: str = "timestamp", columns=None) -> TimeSeriesFrame:
    """Load a UTF-8 comma-separated file into a :class:`TimeSeriesFrame`.

    Parameters
    ----------
    path : str or Path
        File with a header row; one column holds timestamps (ISO-8601 or
        epoch seconds), the rest numeric values. Empty, non-numeric and
        infinite (``inf``, ``-inf``) cells become missing markers (NaN),
        which :func:`forward_fill` treats like any other gap.
    timestamp_column : str
        Header name of the timestamp column.
    columns : None or list of str
        Which value columns to keep. ``None`` keeps all.

    Returns
    -------
    TimeSeriesFrame
        Sorted by timestamp.

    Raises
    ------
    DriftcastError
        Not UTF-8, no header or data rows, a missing column, a row too
        short to hold a timestamp, or an unparseable or duplicate timestamp.
    """
    rows = serialize.read_csv(path)
    try:
        header = next(rows)
    except StopIteration:
        raise DriftcastError(f"{path}: no header row") from None
    header = [h.strip() for h in header]
    if timestamp_column not in header:
        raise DriftcastError(f"{path}: no {timestamp_column!r} column in header {header}")
    ts_idx = header.index(timestamp_column)

    if columns is None:
        columns = [h for h in header if h != timestamp_column]
    for name in columns:
        if name not in header:
            raise DriftcastError(f"{path}: no {name!r} column in header {header}")
    col_idx = {name: header.index(name) for name in columns}

    stamps: list[int] = []
    data: dict[str, list[float]] = {name: [] for name in col_idx}
    for row in rows:
        if not row or all(not c.strip() for c in row):
            continue
        try:
            cell = row[ts_idx]
        except IndexError:
            raise DriftcastError(f"{path}: row {len(stamps) + 1} has no "
                                 f"{timestamp_column!r} cell") from None
        stamps.append(_parse_timestamp(cell))
        for name, idx in col_idx.items():
            data[name].append(_parse_value(row[idx]) if idx < len(row) else math.nan)

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


def write_csv(frame: TimeSeriesFrame, path, timestamp_column: str = "timestamp") -> None:
    """Write a frame with :func:`serialize.write_csv`: ISO timestamps,
    17-significant-digit floats, ``nan`` for a missing value, CRLF line ends.
    ``load_csv(write_csv(frame))`` is value-identical.
    """
    names = list(frame.columns)
    serialize.write_csv(path, [timestamp_column, *names],
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
    grid = np.arange(ts[0], ts[-1] + 1, HOUR, dtype=np.int64)
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
