"""Regression evaluation: MAE, RMSE and the coefficient of determination."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DriftcastError, NumericError


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
    """The three scores over ``n`` test rows; the run's config says what
    was scored, and on which scale."""

    mae: float
    rmse: float
    r2: float
    n: int

    @staticmethod
    def from_dict(d: dict) -> "EvalReport":
        return EvalReport(float(d["mae"]), float(d["rmse"]), float(d["r2"]), int(d["n"]))


def evaluate(y, y_hat) -> EvalReport:
    """Bundle all three metrics over one prediction vector; a score that is
    not finite raises :class:`NumericError` naming it."""
    y = np.asarray(y, float)
    with np.errstate(over="ignore", invalid="ignore"):
        report = EvalReport(mae(y, y_hat), rmse(y, y_hat), r2(y, y_hat), n=int(y.size))
    bad = [f"{name} {score}" for name, score in
           (("mae", report.mae), ("rmse", report.rmse), ("r2", report.r2))
           if not math.isfinite(score)]
    if bad:
        raise NumericError(f"test-block scores are not finite: {', '.join(bad)}")
    return report
