"""The lasso's optimality check, shared by ``test_lasso`` and criterion 6
of ``test_acceptance``."""

import numpy as np

# Converged fits advertise KKT residuals within this bound; the solver's
# own stopping test is a rounding bound far below it.
KKT_TOL = 1e-6


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
