"""Design-matrix construction: cyclic time encodings, lags, rolling stats.

Every feature at row t is a function of strictly past values (lags,
trailing rolling windows) or of the timestamp itself (cyclic encodings),
so a matrix built over the full history leaks nothing forward. The first
``warmup = max(lags + windows)`` rows are dropped rather than imputed,
leaving a fully observed matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DriftcastError
from .frame import TimeSeriesFrame, _readonly

DEFAULT_LAGS = (1, 24, 168)
DEFAULT_WINDOWS = (24, 168)

# values per block of squared deviations in rolling_stats (1 MB of floats)
_BLOCK_CELLS = 1 << 17


@dataclass(frozen=True)
class FeatureSpec:
    """Which engineered columns to build.

    Defaults give the standard hourly forecasting set: hour-of-day and
    day-of-week sine/cosine pairs, lags at 1/24/168 hours, and trailing
    mean/std over 24- and 168-hour windows. ``polynomial_degree=2``
    additionally appends all squares and pairwise products.
    """

    lags: tuple[int, ...] = DEFAULT_LAGS
    rolling_windows: tuple[int, ...] = DEFAULT_WINDOWS
    polynomial_degree: int = 1

    def __post_init__(self):
        object.__setattr__(self, "lags", tuple(int(k) for k in self.lags))
        object.__setattr__(self, "rolling_windows", tuple(int(w) for w in self.rolling_windows))
        if any(k <= 0 for k in self.lags):
            raise DriftcastError("lags must be strictly positive")
        if any(w < 2 for w in self.rolling_windows):
            raise DriftcastError("rolling windows must be >= 2")
        if self.polynomial_degree not in (1, 2):
            raise DriftcastError("polynomial_degree must be 1 or 2")

    @property
    def warmup(self) -> int:
        return max(self.lags + self.rolling_windows, default=0)


@dataclass(frozen=True)
class FeatureMatrix:
    """Fully observed design matrix with its aligned target vector.

    Row i corresponds to source-frame row ``origin_index + i``.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    origin_index: int
    timestamps: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "X", _readonly(np.asarray(self.X, float)))
        object.__setattr__(self, "y", _readonly(np.asarray(self.y, float)))
        ts = self.timestamps
        if ts is None:
            ts = np.arange(self.y.size, dtype=np.int64)
        object.__setattr__(self, "timestamps", _readonly(np.asarray(ts, np.int64)))
        if self.X.shape != (self.y.size, len(self.feature_names)):
            raise DriftcastError("X shape does not match y length / feature names")

    @property
    def rows(self) -> int:
        return int(self.y.size)

    def slice(self, start: int, stop: int) -> "FeatureMatrix":
        return FeatureMatrix(
            self.X[start:stop], self.y[start:stop], self.feature_names,
            self.origin_index + start, self.timestamps[start:stop],
        )


def cyclic_encode(timestamps: np.ndarray) -> dict[str, np.ndarray]:
    """Sine/cosine encodings of hour-of-day and day-of-week (Monday = 0)."""
    ts = np.asarray(timestamps, dtype=np.int64)
    hour = (ts % 86400) / 3600.0
    dow = ((ts // 86400) + 3) % 7  # epoch day 0 was a Thursday
    two_pi = 2.0 * math.pi
    return {
        "hour_sin": np.sin(two_pi * hour / 24.0),
        "hour_cos": np.cos(two_pi * hour / 24.0),
        "dow_sin": np.sin(two_pi * dow / 7.0),
        "dow_cos": np.cos(two_pi * dow / 7.0),
    }


def make_lags(values: np.ndarray, lags) -> dict[str, np.ndarray]:
    """``lag_k[t] = values[t - k]``; the first k entries are missing."""
    v = np.asarray(values, float)
    out = {}
    for k in lags:
        k = int(k)
        if k <= 0:
            raise DriftcastError(f"lag must be positive, got {k}")
        if k >= v.size:
            raise DriftcastError(f"lag {k} >= series length {v.size}")
        col = np.full(v.size, np.nan)
        col[k:] = v[:-k]
        out[f"lag_{k}"] = col
    return out


def rolling_stats(values: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Trailing mean and population std of the window ending at t - 1.

    Strictly past values only, so the current target never feeds its own
    predictors. Rows with fewer than ``window`` past values are missing.
    """
    window = int(window)
    if window < 2:
        raise DriftcastError(f"window must be >= 2, got {window}")
    v = np.asarray(values, float)
    n = v.size
    mean = np.full(n, np.nan)
    std = np.full(n, np.nan)
    if n > window:
        # two-pass per window (not a running sum): each output depends
        # only on its own w past values, and a constant window yields an
        # exact zero std instead of cancellation dust. Blocks of rows keep
        # the squared deviations at _BLOCK_CELLS values instead of n * w;
        # every row still reduces its own contiguous window as before.
        view = np.lib.stride_tricks.sliding_window_view(v, window)[:n - window]
        step = max(1, _BLOCK_CELLS // window)
        for lo in range(0, n - window, step):
            block = view[lo:lo + step]
            rows = slice(window + lo, window + lo + len(block))
            mean[rows] = block.mean(axis=1)
            dev = block - mean[rows, None]
            dev *= dev
            std[rows] = np.sqrt(dev.mean(axis=1))
    return mean, std


def polynomial_expand(X: np.ndarray, names, degree: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Degree-2 expansion: inputs, then squares, then i<j products.

    Degree 1 returns the input unchanged. Product columns are named
    ``a*b`` in input-index pair order. Every column is written straight
    into one preallocated array.
    """
    if degree == 1:
        return np.asarray(X, float), tuple(names)
    if degree != 2:
        raise DriftcastError(f"degree must be 1 or 2, got {degree}")
    X = np.asarray(X, float)
    names = list(names)
    n, k = X.shape
    out = np.empty((n, 2 * k + k * (k - 1) // 2))
    out[:, :k] = X
    np.multiply(X, X, out=out[:, k:2 * k])
    out_names = names + [f"{a}*{a}" for a in names]
    col = 2 * k
    for i in range(k):
        for j in range(i + 1, k):
            np.multiply(X[:, i], X[:, j], out=out[:, col])
            out_names.append(f"{names[i]}*{names[j]}")
            col += 1
    return out, tuple(out_names)


def build_features(frame: TimeSeriesFrame, target: str,
                   spec: FeatureSpec | None = None) -> FeatureMatrix:
    """Assemble the full design matrix for one target column.

    Column order is deterministic: cyclic encodings, lags in spec order,
    then (mean, std) per rolling window; polynomial expansion, when
    requested, is applied last. The first ``spec.warmup`` rows are
    dropped so every remaining cell is finite.
    """
    spec = spec or FeatureSpec()
    y = frame.column(target)
    if np.isnan(y).any():
        raise DriftcastError(f"target {target!r} has missing values; forward_fill first")
    warmup = spec.warmup
    if warmup >= frame.n:
        raise DriftcastError(
            f"warmup {warmup} consumes the whole series of length {frame.n}"
        )

    cyc = cyclic_encode(frame.timestamps)
    names = list(cyc)
    cols = list(cyc.values())
    for name, col in make_lags(y, spec.lags).items():
        names.append(name)
        cols.append(col)
    for w in spec.rolling_windows:
        mean, std = rolling_stats(y, w)
        names.append(f"roll_mean_{w}")
        cols.append(mean)
        names.append(f"roll_std_{w}")
        cols.append(std)

    X = np.column_stack(cols)[warmup:]
    X, out_names = polynomial_expand(X, names, spec.polynomial_degree)
    return FeatureMatrix(X, y[warmup:], out_names, warmup, frame.timestamps[warmup:])
