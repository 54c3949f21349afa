"""L1-regularized linear regression by cyclic coordinate descent.

Objective (on internally standardized columns and centered target):

    (1 / 2n) * ||y - X b||^2  +  alpha * ||b||_1

The per-coordinate minimizer is the soft-thresholded correlation, swept in
ascending column order until the largest coefficient change falls below
``tol``. The regularization strength is picked by expanding-window
cross-validation over a small grid, ties resolved toward the larger
(sparser) alpha.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DidNotConverge, DriftcastError, NumericError
from .features import FeatureMatrix
from .frame import Scaler
from .serialize import write_csv

DEFAULT_ALPHA_GRID = (0.001, 0.01, 0.1, 1.0)

# Converged fits advertise KKT residuals within this bound; after the
# coefficient-change test passes we keep sweeping (budget permitting)
# until the stationarity residual clears it with margin.
KKT_TOL = 1e-6


@dataclass(frozen=True)
class LassoConfig:
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    cv_folds: int = 5
    max_iter: int = 10_000
    tol: float = 1e-7

    def __post_init__(self):
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        if not all(0.0 <= a < math.inf for a in self.alpha_grid):
            raise DriftcastError("alphas must be finite and >= 0 (0 is the OLS check mode)")
        if self.cv_folds < 2:
            raise DriftcastError("cv_folds must be >= 2")
        if self.tol <= 0 or self.max_iter < 1:
            raise DriftcastError("tol must be positive and max_iter >= 1")

    @property
    def min_rows(self) -> int:
        """Fewest rows :func:`lasso_cv` accepts: the first fold then trains
        on two rows, the least :func:`lasso_fit` can standardize."""
        return self.cv_folds + 2


@dataclass
class LassoModel:
    """Coefficients in the solver's standardized space plus the scalers.

    Predictions: ``(X - x_mean) / x_std @ coefficients + intercept`` where
    the intercept is the training-target mean (columns are centered, so no
    other term survives).
    """

    coefficients: np.ndarray
    intercept: float
    chosen_alpha: float
    x_mean: np.ndarray
    x_std: np.ndarray
    converged: bool = True
    n_sweeps: int = 0
    feature_names: tuple[str, ...] | None = None
    cv_results: list[tuple[float, int, float]] = field(default_factory=list)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, float)
        if X.ndim != 2 or X.shape[1] != self.coefficients.size:
            raise DriftcastError(
                f"X must be (n, {self.coefficients.size}), got {X.shape}")
        return Scaler(self.x_mean, self.x_std).transform(X) @ self.coefficients + self.intercept

    def cv_to_csv(self, path) -> None:
        """Validation MSE per alpha and fold, one row each."""
        write_csv(path, ["alpha", "fold", "val_mse"], self.cv_results)

    def to_dict(self) -> dict:
        names = self.feature_names or tuple(
            f"x{i}" for i in range(self.coefficients.size))
        return {
            "coefficients": {n: float(c) for n, c in zip(names, self.coefficients)},
            "intercept": self.intercept,
            "chosen_alpha": self.chosen_alpha,
            "x_mean": self.x_mean.tolist(),
            "x_std": self.x_std.tolist(),
            "converged": self.converged,
        }


def soft_threshold(z: float, t: float) -> float:
    """sign(z) * max(|z| - t, 0); the scalar L1 proximal step.

    Plain float arithmetic with the bits of that numpy formula in every
    case: -0.0 for -t <= z < 0, +0.0 for 0 <= z <= t (z = -0.0 too), and
    NaN where |z| - t is NaN.
    """
    if not t >= 0:
        raise DriftcastError("threshold must be >= 0")
    z = float(z)
    excess = abs(z) - float(t)
    if excess > 0.0:
        return excess if z > 0.0 else -excess
    if excess != excess:
        return excess
    return -0.0 if z < 0.0 else 0.0


def kkt_violation(Xs: np.ndarray, yc: np.ndarray, beta: np.ndarray, alpha: float) -> float:
    """Largest stationarity residual: 0 at an exact optimum.

    For inactive coordinates the correlation |X_j' r / n| may not exceed
    alpha; on the active set it must equal alpha (sign matching beta_j).
    """
    n = yc.size
    corr = Xs.T @ (yc - Xs @ beta) / n
    active = beta != 0.0
    viol = np.maximum(np.abs(corr) - alpha, 0.0)
    viol[active] = np.abs(corr[active] - alpha * np.sign(beta[active]))
    return float(viol.max()) if viol.size else 0.0


def _gram_sweep(indices, beta: list, corr: np.ndarray, gram_rows,
                col_norm2: list, alpha: float) -> float:
    """One cyclic pass of covariance updates; returns the largest |change|.

    ``corr`` holds X'r / n and is updated in place against ``gram_rows[j]``,
    a contiguous row of G.T (the values of column j of the Gram matrix G).
    ``beta`` and ``col_norm2`` are lists of Python floats, and the
    threshold is :func:`soft_threshold` inlined for a finite alpha: the
    same IEEE operations in the same order as the formula on numpy
    scalars, so every bit, signed zeros and NaN included, is the same.
    """
    neg_alpha = -alpha
    max_delta = 0.0
    for j in indices:
        nj = col_norm2[j]
        if nj <= 0.0:
            continue
        old = beta[j]
        rho = corr.item(j) + nj * old
        if rho > alpha:
            new = (rho - alpha) / nj
        elif rho < neg_alpha:
            new = (rho + alpha) / nj
        elif rho >= 0.0:
            new = 0.0
        elif rho < 0.0:
            new = -0.0
        else:
            new = rho  # NaN stays NaN
        if new != old:
            delta = new - old
            corr -= gram_rows[j] * delta
            beta[j] = new
            delta = abs(delta)
            if delta > max_delta:  # max(max_delta, delta), NaN included
                max_delta = delta
    return max_delta


@dataclass
class _Standardized:
    """The standardized design, centered target and Gram terms of one fit.

    ``lasso_cv`` builds one per fold and shares it across the fold's alphas.
    """

    scaler: Scaler
    Xs: np.ndarray
    yc: np.ndarray
    y_mean: float
    gram_rows: list     # rows of G.T, G = X'X / n
    xty: np.ndarray     # X'y / n
    col_norm2: list     # diag(G) as floats


def _standardize(X: np.ndarray, y: np.ndarray) -> _Standardized:
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NumericError("lasso input contains non-finite values")
    scaler = Scaler.fit(X)
    Xs = scaler.transform(X)
    with np.errstate(over="ignore"):
        y_mean = float(y.mean())
        yc = y - y_mean
        start = float(yc @ yc)
    if not math.isfinite(start):
        raise NumericError("the starting objective overflows: the target is too large")
    n = yc.size
    G = Xs.T @ Xs / n
    return _Standardized(scaler, Xs, yc, y_mean, list(np.ascontiguousarray(G.T)),
                         Xs.T @ yc / n, np.diag(G).tolist())


def lasso_fit(X: np.ndarray, y: np.ndarray, alpha: float,
              config: LassoConfig | None = None, *,
              _prep: _Standardized | None = None) -> LassoModel:
    """Fit one lasso at a fixed alpha.

    Standardizes columns and centers the target internally (the returned
    model carries the statistics), then runs cyclic coordinate descent
    until the largest coefficient change in a sweep drops below
    ``config.tol`` or ``config.max_iter`` sweeps elapse. Hitting the sweep
    budget emits a :class:`DidNotConverge` warning instead of raising, so
    cross-validation survives hard alpha/fold combinations. Non-finite
    ``X`` or ``y``, or a target whose starting objective overflows, raises
    :class:`NumericError` before any sweep.

    ``_prep`` is ``_standardize(X, y)`` when the caller has it already:
    :func:`lasso_cv` builds it once per fold and passes it to every alpha.
    """
    config = config or LassoConfig()
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise DriftcastError(f"bad shapes X{X.shape} y{y.shape}")
    n, d = X.shape
    if n < 2:
        raise DriftcastError("need at least 2 rows to fit")
    if not 0.0 <= alpha < math.inf:
        raise DriftcastError(f"alpha must be finite and >= 0, got {alpha}")
    prep = _standardize(X, y) if _prep is None else _prep

    alpha = float(alpha)
    beta = [0.0] * d
    corr = prep.xty.copy()  # stays equal to X' r / n

    def sweep(indices) -> float:
        return _gram_sweep(indices, beta, corr, prep.gram_rows, prep.col_norm2, alpha)

    def stationary() -> bool:
        # exact residual correlations (the running ones can drift a hair)
        return kkt_violation(prep.Xs, prep.yc, np.array(beta), alpha) <= 0.5 * KKT_TOL

    all_idx = range(d)
    converged = False
    sweeps = 0
    while sweeps < config.max_iter:
        sweeps += 1
        max_delta = sweep(all_idx)
        if max_delta < config.tol:
            converged = True
            # polish: the delta test can stop slightly short of
            # stationarity on correlated designs; keep sweeping while the
            # budget allows until the KKT residual clears the bound.
            if stationary():
                break
        else:
            converged = False
            # active-set refinement: iterate the nonzero coordinates to
            # their fixed point, then re-check everyone with a full sweep.
            active = [j for j in all_idx if beta[j] != 0.0]
            while active and sweeps < config.max_iter:
                sweeps += 1
                if sweep(active) < config.tol:
                    break

    if not converged:
        warnings.warn(
            f"coordinate descent stopped after {sweeps} sweeps with "
            f"coefficient changes above tol={config.tol}", DidNotConverge)

    return LassoModel(np.array(beta), prep.y_mean, alpha, prep.scaler.means, prep.scaler.stds,
                      converged=converged, n_sweeps=sweeps)


def timeseries_folds(n_rows: int, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Expanding-window folds over k+1 contiguous blocks.

    Rows split into k+1 nearly equal blocks (remainder rows go to the
    earliest blocks); fold i trains on blocks 1..i and validates on block
    i+1, so validation rows always come strictly after their training
    rows and the validation blocks partition everything past block 1.
    """
    if n_rows < k + 1:
        raise DriftcastError(f"need at least {k + 1} rows for {k} folds, have {n_rows}")
    base, rem = divmod(n_rows, k + 1)
    sizes = [base + (1 if i < rem else 0) for i in range(k + 1)]
    edges = np.cumsum([0] + sizes)
    folds = []
    for i in range(1, k + 1):
        train = np.arange(0, edges[i])
        val = np.arange(edges[i], edges[i + 1])
        folds.append((train, val))
    return folds


def _fold_mses(features: FeatureMatrix, alphas: list[float],
               config: LassoConfig) -> list[list[float]]:
    """Validation MSE per fold (outer) and alpha (inner).

    A fold's training rows are a row-prefix view of ``X``. They are
    standardized and their Gram terms built once, every alpha's
    :func:`lasso_fit` reuses those, and only one fold's copy is alive at a
    time.
    """
    X, y = features.X, features.y
    table = []
    for train, val in timeseries_folds(features.rows, config.cv_folds):
        edge, stop = train.size, train.size + val.size  # train is rows [0, edge)
        prep = _standardize(X[:edge], y[:edge])
        mses = []
        for alpha in alphas:
            fit = lasso_fit(X[:edge], y[:edge], alpha, config, _prep=prep)
            pred = fit.predict(X[edge:stop])
            mses.append(float(np.mean((pred - y[edge:stop]) ** 2)))
        table.append(mses)
        del prep  # before the next fold builds its own
    return table


def lasso_cv(features: FeatureMatrix, config: LassoConfig | None = None) -> LassoModel:
    """Pick alpha by expanding-window CV, then refit on all rows.

    Per fold, scalers are refit on the fold's training rows only (that
    happens inside :func:`lasso_fit`). The chosen alpha minimizes the
    mean validation MSE; ties go to the larger alpha (sparser model).
    """
    config = config or LassoConfig()
    rows = features.rows
    if rows < config.min_rows:
        raise DriftcastError(f"need at least {config.min_rows} rows for "
                             f"{config.cv_folds} folds, have {rows}")

    alphas = sorted(config.alpha_grid)
    table = _fold_mses(features, alphas, config)
    cv_results: list[tuple[float, int, float]] = []
    best_alpha = None
    best_mse = np.inf
    for a, alpha in enumerate(alphas):
        fold_mses = [mses[a] for mses in table]
        cv_results.extend((alpha, fold_no, mse)
                          for fold_no, mse in enumerate(fold_mses, start=1))
        mean_mse = float(np.mean(fold_mses))
        if mean_mse <= best_mse:  # ties resolve toward the larger alpha
            best_mse = mean_mse
            best_alpha = alpha
    if not np.isfinite(best_mse):
        raise NumericError("no alpha in the grid gave a finite cross-validation score")

    model = lasso_fit(features.X, features.y, best_alpha, config)
    model.feature_names = features.feature_names
    model.cv_results = cv_results
    return model
