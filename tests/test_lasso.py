import numpy as np
import pytest

from driftcast.errors import DidNotConverge, NonFiniteLoss, TooFewRows
from driftcast.features import FeatureMatrix
from driftcast.lasso import (
    LassoConfig,
    kkt_violation,
    lasso_cv,
    lasso_fit,
    soft_threshold,
    timeseries_folds,
)

GRID = (0.001, 0.01, 0.1, 1.0)


def orthonormal_design(rng, n, d):
    A = rng.normal(0, 1, (n, d))
    A -= A.mean(axis=0)
    Q, _ = np.linalg.qr(A)
    return np.sqrt(n) * Q[:, :d]  # X'X/n = I, zero-mean unit-std columns


def feature_matrix(X, y):
    return FeatureMatrix(X, y, tuple(f"f{i}" for i in range(X.shape[1])), 0)


class TestSoftThreshold:
    def test_cases(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(-1.7, 0.0) == -1.7

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)


class TestLassoFit:
    def test_zero_target(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (40, 5))
        for alpha in GRID:
            model = lasso_fit(X, np.zeros(40), alpha)
            assert np.all(model.coefficients == 0.0)
            assert model.intercept == 0.0

    def test_orthonormal_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(2, 21))
            X = orthonormal_design(rng, 150, d)
            y = X @ (rng.normal(0, 1, d) * 0.5) + rng.normal(0, 0.3, 150)
            yc = y - y.mean()
            n = 150
            for alpha in GRID:
                model = lasso_fit(X, y, alpha)
                expect = np.array(
                    [soft_threshold(float(X[:, j] @ yc / n), alpha) for j in range(d)])
                np.testing.assert_allclose(model.coefficients, expect, atol=1e-8)

    def test_alpha_zero_matches_ols(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (200, 5))
        y = X @ np.array([1.0, -2.0, 0.0, 3.0, 0.5]) + rng.normal(0, 0.2, 200) + 4.0
        model = lasso_fit(X, y, 0.0)
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        beta_ols = np.linalg.lstsq(Xs, y - y.mean(), rcond=None)[0]
        np.testing.assert_allclose(model.coefficients, beta_ols, atol=1e-6)

    def test_objective_monotone_over_sweeps(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (60, 10))
        X[:, 5:] = X[:, :5] * 0.95 + rng.normal(0, 0.1, (60, 5))
        y = X @ rng.normal(0, 1, 10) + rng.normal(0, 0.5, 60)
        model = lasso_fit(X, y, 0.01, record_objective=True)
        hist = model.objective_history
        assert len(hist) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_kkt_at_convergence(self):
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (300, 12))
        X[:, 6:] = X[:, :6] * 0.9 + rng.normal(0, 0.2, (300, 6))
        y = X @ rng.normal(0, 1, 12) + rng.normal(0, 0.5, 300)
        for alpha in GRID:
            model = lasso_fit(X, y, alpha)
            assert model.converged
            Xs = (X - model.x_mean) / model.x_std
            viol = kkt_violation(Xs, y - model.intercept, model.coefficients, alpha)
            assert viol <= alpha + 1e-6 and viol <= 1e-6

    def test_did_not_converge_is_warning(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (80, 10))
        X[:, 5:] = X[:, :5] + rng.normal(0, 1e-4, (80, 5))  # near-duplicate columns
        y = X @ rng.normal(0, 1, 10) + rng.normal(0, 0.1, 80)
        config = LassoConfig(max_iter=2)
        with pytest.warns(DidNotConverge):
            model = lasso_fit(X, y, 0.001, config)
        assert not model.converged

    def test_constant_column_gets_zero_weight(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (50, 3))
        X[:, 1] = 7.0
        y = X[:, 0] * 2.0 + rng.normal(0, 0.1, 50)
        model = lasso_fit(X, y, 0.01)
        assert model.coefficients[1] == 0.0


class TestFolds:
    def test_twelve_rows_five_folds(self):
        folds = timeseries_folds(12, 5)
        assert len(folds) == 5
        expect = [(2, (2, 3)), (4, (4, 5)), (6, (6, 7)), (8, (8, 9)), (10, (10, 11))]
        for (train, val), (n_train, val_rows) in zip(folds, expect):
            assert train.size == n_train
            assert tuple(val) == val_rows

    def test_expanding_window_property(self):
        for n, k in ((12, 5), (37, 5), (101, 7)):
            for train, val in timeseries_folds(n, k):
                assert val.min() > train.max()

    def test_validation_blocks_partition_tail(self):
        n, k = 37, 5
        folds = timeseries_folds(n, k)
        all_val = np.concatenate([val for _, val in folds])
        first_block_end = folds[0][0].size
        np.testing.assert_array_equal(np.sort(all_val), np.arange(first_block_end, n))

    def test_remainder_to_earliest_blocks(self):
        folds = timeseries_folds(13, 5)
        assert folds[0][0].size == 3  # first block absorbs the extra row

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            timeseries_folds(5, 5)


class TestLassoCV:
    def test_noiseless_linear_prefers_smallest_alpha(self):
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (240, 4))
        y = 3.0 * X[:, 0]
        model = lasso_cv(feature_matrix(X, y))
        assert model.chosen_alpha == 0.001
        assert len(model.cv_results) == len(GRID) * 5

    def test_pure_noise_prefers_largest_alpha(self):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            X = rng.normal(0, 1, (120, 4))
            y = rng.normal(0, 1, 120)
            model = lasso_cv(feature_matrix(X, y))
            wins += model.chosen_alpha == 1.0
        assert wins >= 6  # majority outcome over seeds

    def test_singleton_grid(self):
        rng = np.random.default_rng(8)
        X = rng.normal(0, 1, (60, 3))
        y = X[:, 0] + rng.normal(0, 0.1, 60)
        model = lasso_cv(feature_matrix(X, y), LassoConfig(alpha_grid=(0.05,)))
        assert model.chosen_alpha == 0.05

    def test_sparsity_monotone_over_grid(self):
        rng = np.random.default_rng(9)
        X = rng.normal(0, 1, (150, 12))
        y = X[:, 0] * 2 + X[:, 3] * 0.5 + rng.normal(0, 0.5, 150)
        counts = [lasso_fit(X, y, a).nonzero_count for a in sorted(GRID)]
        assert counts == sorted(counts, reverse=True)

    def test_fold_scalers_differ_on_drifting_data(self):
        rng = np.random.default_rng(10)
        X = rng.normal(0, 1, (100, 2))
        X[50:] += 5.0  # level shift inside the fold structure
        y = X[:, 0] + rng.normal(0, 0.1, 100)
        early = lasso_fit(X[:20], y[:20], 0.01)
        late = lasso_fit(X, y, 0.01)
        assert not np.allclose(early.x_mean, late.x_mean)

    @pytest.mark.filterwarnings("ignore")
    def test_no_finite_cv_score_is_typed(self):
        # one target that overflows the squared error makes every fold's
        # validation MSE infinite, whatever the alpha
        rng = np.random.default_rng(12)
        X = rng.normal(0, 1, (60, 3))
        y = X[:, 0] + rng.normal(0, 0.1, 60)
        y[0] = 1e300
        with pytest.raises(NonFiniteLoss):
            lasso_cv(feature_matrix(X, y), LassoConfig(max_iter=20))

    def test_too_few_rows(self):
        rng = np.random.default_rng(11)
        with pytest.raises(TooFewRows):
            lasso_cv(feature_matrix(rng.normal(0, 1, (5, 2)), rng.normal(0, 1, 5)))


class TestSerialization:
    def test_to_dict_names(self):
        rng = np.random.default_rng(12)
        X = rng.normal(0, 1, (40, 2))
        y = X[:, 0] + rng.normal(0, 0.05, 40)
        model = lasso_fit(X, y, 0.01)
        model.feature_names = ("u", "v")
        d = model.to_dict()
        assert set(d["coefficients"]) == {"u", "v"}
        assert d["chosen_alpha"] == 0.01
