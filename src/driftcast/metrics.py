"""Regression evaluation: MAE, RMSE and the coefficient of determination."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DriftcastError


def _check(y, y_hat, min_len=1):
    y = np.asarray(y, float)
    y_hat = np.asarray(y_hat, float)
    if y.shape != y_hat.shape or y.ndim != 1:
        raise DriftcastError(f"shapes differ: {y.shape} vs {y_hat.shape}")
    if y.size < min_len:
        raise DriftcastError(f"need at least {min_len} observations, have {y.size}")
    return y, y_hat


def mae(y, y_hat) -> float:
    """Mean absolute error: (1/n) * sum |y_i - y_hat_i|."""
    y, y_hat = _check(y, y_hat)
    return float(np.mean(np.abs(y - y_hat)))


def rmse(y, y_hat) -> float:
    """Root mean squared error: sqrt((1/n) * sum (y_i - y_hat_i)^2)."""
    y, y_hat = _check(y, y_hat)
    return float(math.sqrt(np.mean((y - y_hat) ** 2)))


def r2(y, y_hat) -> float:
    """1 - SSE/SST with SST about the mean of y.

    Negative values are meaningful (worse than predicting the mean) and
    returned as-is; a constant target makes the ratio undefined and
    raises :class:`DriftcastError` rather than returning a sentinel.
    """
    y, y_hat = _check(y, y_hat, min_len=2)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise DriftcastError("R^2 is undefined for a constant target")
    sse = float(np.sum((y - y_hat) ** 2))
    return 1.0 - sse / sst


@dataclass(frozen=True)
class EvalReport:
    """The three scores plus where they came from."""

    mae: float
    rmse: float
    r2: float
    n: int
    scale: str = "standardized"
    provenance: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(d: dict) -> "EvalReport":
        return EvalReport(float(d["mae"]), float(d["rmse"]), float(d["r2"]),
                          int(d["n"]), d.get("scale", "standardized"),
                          dict(d.get("provenance", {})))


def evaluate(y, y_hat, scale="standardized", **provenance) -> EvalReport:
    """Bundle all three metrics over one prediction vector."""
    y = np.asarray(y, float)
    return EvalReport(mae(y, y_hat), rmse(y, y_hat), r2(y, y_hat), n=int(y.size),
                      scale=scale, provenance=provenance)
