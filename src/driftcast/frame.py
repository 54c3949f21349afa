"""Timestamped numeric tables: CSV ingestion, cleaning, splitting, scaling.

The :class:`TimeSeriesFrame` is the carrier every other module consumes.
Timestamps are stored as int64 epoch seconds (naive instants, no time-zone
arithmetic); values are float64 with ``NaN`` as the explicit missing marker.
All operations return new frames; arrays inside a frame are write-protected.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .errors import (
    DuplicateTimestamp,
    EmptyFile,
    InvalidConfig,
    LeadingGap,
    MissingColumn,
    TooFewRows,
    UnknownColumn,
    UnparseableTimestamp,
)

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
            raise ValueError("timestamps must be one-dimensional")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            if np.any(np.diff(ts) == 0):
                raise DuplicateTimestamp("timestamps contain duplicates")
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", _readonly(ts))
        cols = {}
        for name, values in self.columns.items():
            if not name:
                raise ValueError("column names must be non-empty")
            v = np.asarray(values, dtype=np.float64)
            if v.shape != ts.shape:
                raise ValueError(f"column {name!r} has length {v.size}, expected {ts.size}")
            cols[name] = _readonly(v)
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return int(self.timestamps.size)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise UnknownColumn(f"no column named {name!r}")
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

    def select(self, names) -> "TimeSeriesFrame":
        return TimeSeriesFrame(self.timestamps, {n: self.column(n) for n in names})

    def slice_rows(self, start: int, stop: int) -> "TimeSeriesFrame":
        return TimeSeriesFrame(
            self.timestamps[start:stop],
            {k: v[start:stop] for k, v in self.columns.items()},
        )


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/test split at ``floor(train_fraction * n)``."""

    train_fraction: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidConfig(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}")

    def boundary(self, n: int) -> int:
        return int(math.floor(self.train_fraction * n))


@dataclass(frozen=True)
class Scaler:
    """Per-column z-score parameters (population std, floored at 1e-8).

    Fit only on training rows; applying then inverting recovers the input
    to within 1e-10 relative.
    """

    names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", _readonly(np.asarray(self.means, float)))
        object.__setattr__(self, "stds", _readonly(np.asarray(self.stds, float)))

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Scale a (n, k) matrix or (n,) vector laid out like ``names``."""
        return (np.asarray(values, float) - self.means) / self.stds

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, float) * self.stds + self.means


def _parse_timestamp(cell: str) -> int:
    text = cell.strip()
    if not text:
        raise UnparseableTimestamp("empty timestamp cell")
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
        raise UnparseableTimestamp(f"cannot parse timestamp {cell!r}") from None


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
    columns : None, list of str, or dict
        Which value columns to keep. ``None`` keeps all; a dict maps CSV
        header names to frame column names (rename on load).

    Returns
    -------
    TimeSeriesFrame
        Sorted by timestamp.

    Raises
    ------
    EmptyFile, MissingColumn, UnparseableTimestamp, DuplicateTimestamp
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: no header row") from None
        header = [h.strip() for h in header]
        if timestamp_column not in header:
            raise MissingColumn(f"{path}: no {timestamp_column!r} column in header {header}")
        ts_idx = header.index(timestamp_column)

        if columns is None:
            mapping = {h: h for h in header if h != timestamp_column}
        elif isinstance(columns, dict):
            mapping = dict(columns)
        else:
            mapping = {c: c for c in columns}
        for src in mapping:
            if src not in header:
                raise MissingColumn(f"{path}: no {src!r} column in header {header}")
        src_idx = {src: header.index(src) for src in mapping}

        stamps: list[int] = []
        data: dict[str, list[float]] = {dst: [] for dst in mapping.values()}
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            stamps.append(_parse_timestamp(row[ts_idx]))
            for src, dst in mapping.items():
                idx = src_idx[src]
                data[dst].append(_parse_value(row[idx]) if idx < len(row) else math.nan)

    if not stamps:
        raise EmptyFile(f"{path}: no data rows")

    ts = np.asarray(stamps, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    if np.any(np.diff(ts) == 0):
        where = int(np.flatnonzero(np.diff(ts) == 0)[0])
        raise DuplicateTimestamp(f"{path}: duplicate timestamp at epoch {int(ts[where])}")
    cols = {dst: np.asarray(vals, float)[order] for dst, vals in data.items()}
    missing = {dst: int(np.isnan(v).sum()) for dst, v in cols.items()}
    log.info("loaded %d rows from %s (missing cells: %s)", ts.size, path, missing)
    return TimeSeriesFrame(ts, cols)


def write_csv(frame: TimeSeriesFrame, path, timestamp_column: str = "timestamp") -> None:
    """Write a frame back to CSV (ISO timestamps, 17-significant-digit floats).

    ``load_csv(write_csv(frame))`` is value-identical; missing values are
    written as the literal ``NaN``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        names = list(frame.columns)
        writer.writerow([timestamp_column] + names)
        dts = frame.datetimes
        for i in range(frame.n):
            row = [str(dts[i]).replace(" ", "T")]
            for name in names:
                v = frame.columns[name][i]
                row.append("NaN" if math.isnan(v) else format(v, ".17g"))
            writer.writerow(row)


def forward_fill(frame: TimeSeriesFrame, column: str) -> TimeSeriesFrame:
    """Replace missing values in ``column`` with the last present value.

    Raises :class:`LeadingGap` when the first value is missing (nothing to
    fill from). Idempotent; present values are never changed.
    """
    values = frame.column(column)
    missing = np.isnan(values)
    if not missing.any():
        return frame
    if missing[0]:
        raise LeadingGap(f"column {column!r} starts with a missing value")
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


def chronological_split(frame: TimeSeriesFrame, spec: SplitSpec) -> tuple[TimeSeriesFrame, TimeSeriesFrame]:
    """Split rows [0, boundary) / [boundary, n) with no shuffling."""
    if frame.n < 10:
        raise TooFewRows(f"need at least 10 rows to split, have {frame.n}")
    b = spec.boundary(frame.n)
    if not 0 < b < frame.n:
        raise TooFewRows(f"boundary {b} leaves an empty side for n={frame.n}")
    return frame.slice_rows(0, b), frame.slice_rows(b, frame.n)


def fit_scaler(frame: TimeSeriesFrame, columns) -> Scaler:
    """Fit per-column mean/std (population) on the given frame's rows only."""
    names = tuple(columns)
    means = np.empty(len(names))
    stds = np.empty(len(names))
    for i, name in enumerate(names):
        v = frame.column(name)
        means[i] = v.mean()
        stds[i] = max(v.std(), STD_FLOOR)
    return Scaler(names, means, stds)


def apply_scaler(frame: TimeSeriesFrame, scaler: Scaler) -> TimeSeriesFrame:
    """Return a frame with the scaler's columns standardized."""
    out = {}
    for i, name in enumerate(scaler.names):
        out[name] = (frame.column(name) - scaler.means[i]) / scaler.stds[i]
    return frame.with_columns(**out)


def invert_scaler(frame: TimeSeriesFrame, scaler: Scaler) -> TimeSeriesFrame:
    """Undo :func:`apply_scaler` (exact to within float rounding)."""
    out = {}
    for i, name in enumerate(scaler.names):
        out[name] = frame.column(name) * scaler.stds[i] + scaler.means[i]
    return frame.with_columns(**out)
