import math

import numpy as np
import pytest

from driftcast.errors import DriftcastError
from driftcast.metrics import EvalReport, evaluate, mae, r2, rmse
from driftcast.serialize import record


def naive_metrics(y, y_hat):
    """Direct-summation oracle, no vectorization."""
    n = len(y)
    sae = sum(abs(a - b) for a, b in zip(y, y_hat))
    sse = sum((a - b) ** 2 for a, b in zip(y, y_hat))
    ybar = sum(y) / n
    sst = sum((a - ybar) ** 2 for a in y)
    return sae / n, math.sqrt(sse / n), 1.0 - sse / sst


FIXED_Y = np.array([1.0, 2.0, 3.0])
FIXED_YHAT = np.array([1.0, 2.0, 4.0])


class TestFixedTriple:
    def test_mae(self):
        assert abs(mae(FIXED_Y, FIXED_YHAT) - 1.0 / 3.0) < 1e-12

    def test_rmse(self):
        assert abs(rmse(FIXED_Y, FIXED_YHAT) - math.sqrt(1.0 / 3.0)) < 1e-12

    def test_r2(self):
        assert abs(r2(FIXED_Y, FIXED_YHAT) - 0.5) < 1e-12


class TestDefinitions:
    def test_perfect_prediction(self):
        y = np.linspace(-3, 5, 40)
        assert mae(y, y) == 0.0
        assert rmse(y, y) == 0.0
        assert r2(y, y) == 1.0

    def test_mean_predictor_r2_zero(self):
        y = np.array([1.0, 4.0, -2.0, 3.0])
        y_hat = np.full(4, y.mean())
        assert abs(r2(y, y_hat)) < 1e-12

    def test_r2_can_be_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        y_hat = np.array([10.0, -5.0, 8.0])
        assert r2(y, y_hat) < 0

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0, 1, 30)
        y_hat = rng.normal(0, 1, 30)
        assert abs(mae(y, y_hat) - mae(y + 7, y_hat + 7)) < 1e-12

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.normal(0, 3, 25)
            y_hat = y + rng.normal(0, 1, 25)
            assert rmse(y, y_hat) >= mae(y, y_hat)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 1, 40)
        y_hat = rng.normal(0, 1, 40)
        c = -3.7
        assert abs(mae(c * y, c * y_hat) - abs(c) * mae(y, y_hat)) < 1e-10
        assert abs(rmse(c * y, c * y_hat) - abs(c) * rmse(y, y_hat)) < 1e-10
        assert abs(r2(c * y + 2, c * y_hat + 2) - r2(y, y_hat)) < 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.normal(0, 1, 25)
        y_hat = rng.normal(0, 1, 25)
        perm = rng.permutation(25)
        assert abs(mae(y, y_hat) - mae(y[perm], y_hat[perm])) < 1e-12
        assert abs(rmse(y, y_hat) - rmse(y[perm], y_hat[perm])) < 1e-12
        assert abs(r2(y, y_hat) - r2(y[perm], y_hat[perm])) < 1e-12


class TestRandomizedOracle:
    def test_thousand_cases(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(2, 60))
            y = rng.normal(0, rng.uniform(0.1, 5), n)
            y = y + rng.uniform(-2, 2)
            if np.ptp(y) == 0:
                y[0] += 1.0
            y_hat = y + rng.normal(0, rng.uniform(0.01, 3), n)
            em, er, e2 = naive_metrics(list(y), list(y_hat))
            assert abs(mae(y, y_hat) - em) < 1e-10
            assert abs(rmse(y, y_hat) - er) < 1e-10
            assert abs(r2(y, y_hat) - e2) < 1e-10


class TestErrors:
    def test_length_mismatch(self):
        with pytest.raises(DriftcastError, match=r"shapes differ: \(2,\) vs \(1,\)"):
            mae([1.0, 2.0], [1.0])
        with pytest.raises(DriftcastError, match=r"shapes differ: \(2,\) vs \(1,\)"):
            rmse([1.0, 2.0], [1.0])

    def test_empty(self):
        with pytest.raises(DriftcastError, match="need at least 1 observations, have 0"):
            mae([], [])

    def test_r2_needs_two(self):
        with pytest.raises(DriftcastError, match="need at least 2 observations, have 1"):
            r2([1.0], [1.0])

    def test_constant_target_is_hard_error(self):
        with pytest.raises(DriftcastError, match=r"R\^2 is undefined for a constant target"):
            r2([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestEvalReport:
    def test_round_trip(self):
        rep = evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 4.0],
                       scale="original", dataset="d", model="mlp",
                       strategy="baseline", seed=7)
        d = record(rep)
        back = EvalReport.from_dict(d)
        assert back == rep
        assert back.provenance["seed"] == 7
        assert back.n == 3
