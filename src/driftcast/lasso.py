"""L1-regularized linear regression by feature-sign search.

Objective (on internally standardized columns and centered target):

    (1 / 2n) * ||y - X b||^2  +  alpha * ||b||_1

An active-set method solves it exactly on the Gram matrix: coefficients
enter one at a time, each round solves the active block's linear system
for the current signs, and a line search over sign changes keeps the
objective falling (Lee, Battle, Raina & Ng, NIPS 2006; Osborne, Presnell
& Turlach, IMA J. Numer. Anal. 2000). The regularization strength is
picked by expanding-window cross-validation over a small grid, ties
resolved toward the larger (sparser) alpha.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DidNotConverge, DriftcastError, NumericError
from .features import FeatureMatrix
from .frame import BLOCK_ROWS, STD_FLOOR, Scaler
from .serialize import write_csv

DEFAULT_ALPHA_GRID = (0.001, 0.01, 0.1, 1.0)

# A column whose |cosine| with an earlier eligible one reaches this is a
# copy up to rounding (degree-2 features hold sin^2 and -cos^2 pairs).
_DUPLICATE = 1.0 - 1e-12
# Per column and per Gram term, the rounding a residual correlation carries.
_ROUNDING = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class LassoConfig:
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    cv_folds: int = 5
    max_iter: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        if not all(0.0 <= a < math.inf for a in self.alpha_grid):
            raise DriftcastError("alphas must be finite and >= 0 (0 is the OLS check mode)")
        if self.cv_folds < 2:
            raise DriftcastError("cv_folds must be >= 2")
        if self.max_iter < 1:
            raise DriftcastError("max_iter must be >= 1")

    @property
    def min_rows(self) -> int:
        """Fewest rows :func:`lasso_cv` accepts: the first fold then trains
        on two rows, the least :func:`lasso_fit` can standardize."""
        return self.cv_folds + 2


@dataclass
class LassoModel:
    """Coefficients in the solver's standardized space plus the fit's Scaler.

    Predictions: ``scaler.transform(X) @ coefficients + intercept`` where
    the intercept is the training-target mean (columns are centered, so no
    other term survives); each row is summed in an order that does not
    depend on the BLAS thread count. ``n_sweeps`` counts the fit's
    active-set solves; the benchmark's trace reads it under that name.
    """

    coefficients: np.ndarray
    intercept: float
    chosen_alpha: float
    scaler: Scaler
    converged: bool = True
    n_sweeps: int = 0
    feature_names: tuple[str, ...] | None = None
    cv_results: list[tuple[float, int, float]] = field(default_factory=list)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, float)
        if X.ndim != 2 or X.shape[1] != self.coefficients.size:
            raise DriftcastError(
                f"X must be (n, {self.coefficients.size}), got {X.shape}")
        # einsum sums each row in one fixed order. A BLAS product splits the
        # rows between threads, and rows past a split may round differently.
        Xs = self.scaler.transform(X)
        return np.einsum("ij,j->i", Xs, self.coefficients) + self.intercept

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
            "x_mean": self.scaler.means.tolist(),
            "x_std": self.scaler.stds.tolist(),
            "converged": self.converged,
        }


@dataclass
class _Standardized:
    """The scaler, target mean and Gram terms of one fit's standardized
    design and centered target.

    ``lasso_cv`` builds one per fold and shares it across the fold's alphas.
    """

    scaler: Scaler
    y_mean: float
    gram: np.ndarray      # G = X'X / n
    xty: np.ndarray       # X'y / n
    eligible: np.ndarray  # columns the solver may move off zero


def _eligible_columns(G: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Columns with a std above the scaler's floor that are not a +/- copy,
    up to rounding, of an earlier eligible column: the others stay at zero.

    A copy's residual correlation is its twin's, so holding it at zero
    loses no fit, and it keeps the active block of G nonsingular.
    """
    norms = np.sqrt(np.diag(G))
    eligible = stds > STD_FLOOR
    for j in np.flatnonzero(eligible):
        twins = np.abs(G[:j, j]) >= _DUPLICATE * norms[:j] * norms[j]
        if (twins & eligible[:j]).any():
            eligible[j] = False
    return eligible


def _standardize(X: np.ndarray, y: np.ndarray) -> _Standardized:
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NumericError("lasso input contains non-finite values")
    scaler = Scaler.fit(X)
    with np.errstate(over="ignore"):
        y_mean = float(y.mean())
        yc = y - y_mean
        start = float(yc @ yc)
    if not math.isfinite(start):
        raise NumericError("the starting objective overflows: the target is too large")
    n, d = X.shape
    G, xty = np.zeros((d, d)), np.zeros(d)
    for first in range(0, n, BLOCK_ROWS):
        rows = slice(first, first + BLOCK_ROWS)
        Xs = scaler.transform(X[rows])
        G += Xs.T @ Xs
        xty += Xs.T @ yc[rows]
    G /= n
    xty /= n
    return _Standardized(scaler, y_mean, G, xty, _eligible_columns(G, scaler.stds))


def _line_search(x0, step, signs, slope, curv, alpha):
    """The point of lowest objective among ``x0 + step`` and each zero
    crossing on the way, its objective change, and whether it is the end
    point with its signs unchanged.

    Objective changes are measured from ``x0``: ``slope`` and ``curv`` are
    the first and second derivatives along ``step`` of the smooth part
    with the penalty ``alpha * signs'x``, and a coefficient whose sign went
    against ``signs`` adds ``2 * alpha * |x_k|``. Each term is small near
    the optimum, so no difference of large objectives is taken.
    """
    x1 = x0 + step
    crosses = (x0 != 0.0) & (signs * x1 <= 0.0)
    t_zero = np.full(x0.size, np.inf)
    t_zero[crosses] = x0[crosses] / (x0[crosses] - x1[crosses])
    ts = np.unique(np.append(t_zero[crosses & (t_zero < 1.0)], 1.0))
    points = x0 + ts[:, None] * step
    points[ts[:, None] == t_zero] = 0.0  # each crossing lands on zero exactly
    flipped = np.maximum(-signs * points, 0.0).sum(axis=1)
    change = ts * slope + 0.5 * ts * ts * curv + 2.0 * alpha * flipped
    best = int(np.argmin(change))
    x = points[best]
    return x, change[best], best == ts.size - 1 and not (signs * x < 0.0).any()


def _entering_step(G, A, x0, grad, j, sign_j, grad_j):
    """The step on the active set ``A`` plus column ``j`` (last) to the
    optimum of the signed objective, by bordering the solve on ``G_AA``.

    ``x0`` is b_A, ``grad`` is ``corr_A - alpha * sign_A`` and ``grad_j``
    is ``corr_j - alpha * sign_j``. When X_j lies in the span of the active
    columns up to rounding (its Schur complement at the noise floor), b_j
    can grow at no cost to the fit while b_A moves by ``-w`` per unit: the
    step then runs to the last zero crossing that move meets, and it ends
    off the optimum. Returns (step, whether it ends at the optimum), or
    None when the move meets no crossing.
    """
    G_Aj = G[A, j]
    p, w = np.linalg.solve(G[np.ix_(A, A)], np.column_stack((grad, G_Aj))).T
    schur = G[j, j] - G_Aj @ w
    if schur > _ROUNDING * A.size * (G[j, j] + np.abs(G_Aj) @ np.abs(w)):
        step_j = (grad_j - G_Aj @ p) / schur
        exact = True
    else:
        toward = -w * sign_j
        meets = x0 * toward < 0.0
        if not meets.any():
            return None
        step_j = sign_j * float(np.max(-x0[meets] / toward[meets]))
        exact = False
    return np.append(p - w * step_j, step_j), exact


def _feature_sign(prep: _Standardized, alpha: float, max_solves: int):
    """Feature-sign search (Lee, Battle, Raina & Ng, NIPS 2006) on the Gram
    terms; returns (coefficients, solves, converged).

    Each round either activates the zero coefficient whose residual
    correlation exceeds alpha the most beyond rounding (when the active set
    is at its own optimum) or re-solves the active set after a coefficient
    fell to zero or changed sign. A solve is
    ``G_AA b_A = (X'y/n)_A - alpha * sign_A``, followed by a line search
    over the zero crossings between the current coefficients and that
    solution. The objective falls at each move, so no sign pattern recurs;
    the fit stops short only when ``max_solves`` run out or rounding leaves
    no move that lowers the objective.
    """
    G, xty, eligible = prep.gram, prep.xty, prep.eligible
    d = xty.size
    beta = np.zeros(d)
    signs = np.zeros(d)
    active = np.zeros(d, dtype=bool)
    abs_gram = np.abs(G)
    at_optimum = True  # b = 0 is the optimum of the empty active set
    solves = 0
    while True:
        corr = xty - G @ beta
        if at_optimum:
            # a correlation within rounding of alpha already satisfies KKT
            slack = _ROUNDING * d * (np.abs(xty) + abs_gram @ np.abs(beta))
            excess = np.where(eligible & ~active, np.abs(corr) - alpha - slack, -np.inf)
            if not (excess > 0.0).any():
                return beta, solves, True
            j = int(np.argmax(excess))
        if solves == max_solves:
            return beta, solves, False
        solves += 1
        A = np.flatnonzero(active)
        grad = corr[A] - alpha * signs[A]
        if at_optimum:
            signs[j] = 1.0 if corr[j] > 0.0 else -1.0
            grad_j = corr[j] - alpha * signs[j]
            entry = _entering_step(G, A, beta[A], grad, j, signs[j], grad_j)
            if entry is None:
                return beta, solves, False
            step, exact = entry
            A, grad = np.append(A, j), np.append(grad, grad_j)
            G_AA = G[np.ix_(A, A)]
        else:
            G_AA = G[np.ix_(A, A)]
            step, exact = np.linalg.solve(G_AA, grad), True
        x, change, at_end = _line_search(beta[A], step, signs[A], -float(grad @ step),
                                         float(step @ G_AA @ step), alpha)
        if change < 0.0:
            beta[A] = x
            active[A] = x != 0.0
            signs[A] = np.sign(x)
            at_optimum = (at_end and exact) or not active.any()
        elif at_optimum:
            # the new coefficient cannot lower the objective past rounding
            return beta, solves, False
        else:
            at_optimum = True  # the active set is at its optimum to rounding


def lasso_fit(X: np.ndarray, y: np.ndarray, alpha: float,
              config: LassoConfig | None = None, *,
              _prep: _Standardized | None = None) -> LassoModel:
    """Fit one lasso at a fixed alpha.

    Standardizes columns and centers the target internally (the returned
    model carries the Scaler), then runs feature-sign search to the
    exact optimum in at most ``config.max_iter`` active-set solves.
    Stopping short of it emits a :class:`DidNotConverge` warning instead
    of raising, so cross-validation survives hard alpha/fold
    combinations. Non-finite ``X`` or ``y``, or a target whose starting
    objective overflows, raises :class:`NumericError` before any solve.

    ``_prep`` is ``_standardize(X, y)`` when the caller has it already:
    :func:`lasso_cv` builds it once per fold and passes it to every alpha.
    """
    config = config or LassoConfig()
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise DriftcastError(f"bad shapes X{X.shape} y{y.shape}")
    if y.size < 2:
        raise DriftcastError("need at least 2 rows to fit")
    if not 0.0 <= alpha < math.inf:
        raise DriftcastError(f"alpha must be finite and >= 0, got {alpha}")
    prep = _standardize(X, y) if _prep is None else _prep

    alpha = float(alpha)
    beta, solves, converged = _feature_sign(prep, alpha, config.max_iter)
    if not converged:
        warnings.warn(f"feature-sign search stopped after {solves} active-set solves "
                      f"short of the optimum", DidNotConverge)
    return LassoModel(beta, prep.y_mean, alpha, prep.scaler,
                      converged=converged, n_sweeps=solves)


def timeseries_folds(n_rows: int, k: int) -> list[tuple[int, int]]:
    """Expanding-window folds over k+1 contiguous blocks, as row counts.

    Rows split into k+1 nearly equal blocks (remainder rows go to the
    earliest blocks). Fold i is ``(edge, stop)``: it trains on rows
    ``[0, edge)``, blocks 1..i, and validates on rows ``[edge, stop)``,
    block i+1, so validation rows always come strictly after their
    training rows and the validation blocks partition everything past
    block 1.
    """
    if k < 1:
        raise DriftcastError(f"need at least 1 fold, got {k}")
    if n_rows < k + 1:
        raise DriftcastError(f"need at least {k + 1} rows for {k} folds, have {n_rows}")
    base, rem = divmod(n_rows, k + 1)
    edges = [i * base + min(i, rem) for i in range(1, k + 2)]
    return list(zip(edges, edges[1:]))


def lasso_cv(features: FeatureMatrix, config: LassoConfig | None = None) -> LassoModel:
    """Pick alpha by expanding-window CV, then refit on all rows.

    A fold's training rows are a row-prefix view of ``X``. Their scaler
    and Gram terms are built once per fold and every alpha's
    :func:`lasso_fit` reuses them, so no validation row reaches a fold's
    scaler, and only one fold's Gram terms are alive at a time. The
    chosen alpha minimizes the mean validation MSE; ties go to the larger
    alpha (sparser model).
    """
    config = config or LassoConfig()
    rows = features.rows
    if rows < config.min_rows:
        raise DriftcastError(f"need at least {config.min_rows} rows for "
                             f"{config.cv_folds} folds, have {rows}")

    X, y = features.X, features.y
    alphas = sorted(config.alpha_grid)
    mses = np.empty((len(alphas), config.cv_folds))
    for f, (edge, stop) in enumerate(timeseries_folds(rows, config.cv_folds)):
        prep = _standardize(X[:edge], y[:edge])
        for a, alpha in enumerate(alphas):
            fit = lasso_fit(X[:edge], y[:edge], alpha, config, _prep=prep)
            mses[a, f] = np.mean((fit.predict(X[edge:stop]) - y[edge:stop]) ** 2)
        del prep  # before the next fold builds its own

    cv_results = [(alpha, fold_no, float(mse)) for alpha, fold_mses in zip(alphas, mses)
                  for fold_no, mse in enumerate(fold_mses, start=1)]
    best_alpha, best_mse = None, np.inf
    for alpha, mean_mse in zip(alphas, mses.mean(axis=1)):
        if mean_mse <= best_mse:  # ties resolve toward the larger alpha
            best_alpha, best_mse = alpha, mean_mse
    if not np.isfinite(best_mse):
        raise NumericError("no alpha in the grid gave a finite cross-validation score")

    model = lasso_fit(X, y, best_alpha, config)
    model.feature_names = features.feature_names
    model.cv_results = cv_results
    return model
