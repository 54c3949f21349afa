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

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DidNotConverge, InvalidConfig, NonFiniteLoss, ShapeMismatch, TooFewRows
from .features import FeatureMatrix
from .frame import STD_FLOOR

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
    seed: int = 0  # reserved; the solver is deterministic

    def __post_init__(self):
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        if any(a < 0 for a in self.alpha_grid):
            raise InvalidConfig("alphas must be >= 0 (0 is the OLS check mode)")
        if self.cv_folds < 2:
            raise InvalidConfig("cv_folds must be >= 2")
        if self.tol <= 0 or self.max_iter < 1:
            raise InvalidConfig("tol must be positive and max_iter >= 1")

    def to_dict(self) -> dict:
        return {
            "alpha_grid": list(self.alpha_grid),
            "cv_folds": self.cv_folds,
            "max_iter": self.max_iter,
            "tol": self.tol,
            "seed": self.seed,
        }


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
    objective_history: list[float] | None = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, float)
        if X.ndim != 2 or X.shape[1] != self.coefficients.size:
            raise ShapeMismatch(
                f"X must be (n, {self.coefficients.size}), got {X.shape}")
        return (X - self.x_mean) / self.x_std @ self.coefficients + self.intercept

    @property
    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.coefficients))

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
    """sign(z) * max(|z| - t, 0); the scalar L1 proximal step."""
    if t < 0:
        raise ValueError("threshold must be >= 0")
    return float(np.sign(z) * max(abs(z) - t, 0.0))


def lasso_objective(Xs: np.ndarray, yc: np.ndarray, beta: np.ndarray, alpha: float) -> float:
    r = yc - Xs @ beta
    return float(r @ r / (2.0 * yc.size) + alpha * np.abs(beta).sum())


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


def lasso_fit(X: np.ndarray, y: np.ndarray, alpha: float,
              config: LassoConfig | None = None,
              record_objective: bool = False) -> LassoModel:
    """Fit one lasso at a fixed alpha.

    Standardizes columns and centers the target internally (the returned
    model carries the statistics), then runs cyclic coordinate descent
    until the largest coefficient change in a sweep drops below
    ``config.tol`` or ``config.max_iter`` sweeps elapse. Hitting the sweep
    budget emits a :class:`DidNotConverge` warning instead of raising, so
    cross-validation survives hard alpha/fold combinations.
    """
    config = config or LassoConfig()
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ShapeMismatch(f"bad shapes X{X.shape} y{y.shape}")
    n, d = X.shape
    if n < 2:
        raise TooFewRows("need at least 2 rows to fit")

    x_mean = X.mean(axis=0)
    x_std = np.maximum(X.std(axis=0), STD_FLOOR)
    Xs = (X - x_mean) / x_std
    y_mean = float(y.mean())
    yc = y - y_mean

    beta = np.zeros(d)
    history = [lasso_objective(Xs, yc, beta, alpha)] if record_objective else None

    # With many more rows than columns, sweeping against the Gram matrix
    # makes a coordinate update O(d) instead of O(n); the residual form is
    # kept for small problems and when the per-sweep objective is recorded.
    use_gram = not record_objective and n > 4 * d
    if use_gram:
        G = Xs.T @ Xs / n
        corr = Xs.T @ yc / n            # stays equal to X' r / n
        col_norm2 = np.diag(G).copy()
    else:
        r = yc.copy()
        col_norm2 = (Xs * Xs).sum(axis=0) / n

    def sweep(indices) -> float:
        nonlocal r, corr
        max_delta = 0.0
        for j in indices:
            nj = col_norm2[j]
            if nj <= 0.0:
                continue
            old = beta[j]
            if use_gram:
                rho = corr[j] + nj * old
            else:
                rho = (Xs[:, j] @ r) / n + nj * old
            new = soft_threshold(rho, alpha) / nj
            if new != old:
                if use_gram:
                    corr -= G[:, j] * (new - old)
                else:
                    r -= Xs[:, j] * (new - old)
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if history is not None:
            history.append(lasso_objective(Xs, yc, beta, alpha))
        return max_delta

    def stationary() -> bool:
        # exact residual correlations (the running ones can drift a hair)
        return kkt_violation(Xs, yc, beta, alpha) <= 0.5 * KKT_TOL

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
            active = np.flatnonzero(beta)
            while active.size and sweeps < config.max_iter:
                sweeps += 1
                if sweep(active) < config.tol:
                    break

    if not converged:
        warnings.warn(
            f"coordinate descent stopped after {sweeps} sweeps with "
            f"coefficient changes above tol={config.tol}", DidNotConverge)

    return LassoModel(beta, y_mean, float(alpha), x_mean, x_std,
                      converged=converged, n_sweeps=sweeps,
                      objective_history=history)


def timeseries_folds(n_rows: int, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Expanding-window folds over k+1 contiguous blocks.

    Rows split into k+1 nearly equal blocks (remainder rows go to the
    earliest blocks); fold i trains on blocks 1..i and validates on block
    i+1, so validation rows always come strictly after their training
    rows and the validation blocks partition everything past block 1.
    """
    if n_rows < k + 1:
        raise TooFewRows(f"need at least {k + 1} rows for {k} folds, have {n_rows}")
    base, rem = divmod(n_rows, k + 1)
    sizes = [base + (1 if i < rem else 0) for i in range(k + 1)]
    edges = np.cumsum([0] + sizes)
    folds = []
    for i in range(1, k + 1):
        train = np.arange(0, edges[i])
        val = np.arange(edges[i], edges[i + 1])
        folds.append((train, val))
    return folds


def lasso_cv(features: FeatureMatrix, config: LassoConfig | None = None) -> LassoModel:
    """Pick alpha by expanding-window CV, then refit on all rows.

    Per fold, scalers are refit on the fold's training rows only (that
    happens inside :func:`lasso_fit`). The chosen alpha minimizes the
    mean validation MSE; ties go to the larger alpha (sparser model).
    """
    config = config or LassoConfig()
    rows = features.rows
    if rows < config.cv_folds + 1:
        raise TooFewRows(
            f"need at least {config.cv_folds + 1} rows, have {rows}")

    folds = timeseries_folds(rows, config.cv_folds)
    cv_results: list[tuple[float, int, float]] = []
    best_alpha = None
    best_mse = np.inf
    for alpha in sorted(config.alpha_grid):
        fold_mses = []
        for fold_no, (train, val) in enumerate(folds, start=1):
            fit = lasso_fit(features.X[train], features.y[train], alpha, config)
            pred = fit.predict(features.X[val])
            fold_mse = float(np.mean((pred - features.y[val]) ** 2))
            fold_mses.append(fold_mse)
            cv_results.append((alpha, fold_no, fold_mse))
        mean_mse = float(np.mean(fold_mses))
        if mean_mse <= best_mse:  # ties resolve toward the larger alpha
            best_mse = mean_mse
            best_alpha = alpha
    if not np.isfinite(best_mse):
        raise NonFiniteLoss("no alpha in the grid gave a finite cross-validation score")

    model = lasso_fit(features.X, features.y, best_alpha, config)
    model.feature_names = features.feature_names
    model.cv_results = cv_results
    return model
