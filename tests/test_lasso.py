import hashlib
import math
import warnings

import numpy as np
import pytest

from driftcast import lasso
from driftcast.errors import DidNotConverge, DriftcastError, NumericError
from driftcast.features import FeatureMatrix, FeatureSpec, build_features
from driftcast.frame import Scaler, SplitSpec
from driftcast.lasso import (
    LassoConfig,
    _gram_sweep,
    kkt_violation,
    lasso_cv,
    lasso_fit,
    soft_threshold,
    timeseries_folds,
)
from driftcast.serialize import dumps
from driftcast.synth import TARGET_COLUMN, generate

GRID = (0.001, 0.01, 0.1, 1.0)


def orthonormal_design(rng, n, d):
    A = rng.normal(0, 1, (n, d))
    A -= A.mean(axis=0)
    Q, _ = np.linalg.qr(A)
    return np.sqrt(n) * Q[:, :d]  # X'X/n = I, zero-mean unit-std columns


def feature_matrix(X, y):
    return FeatureMatrix(X, y, tuple(f"f{i}" for i in range(X.shape[1])), 0)


def numpy_threshold(z, t):
    return float(np.sign(z) * max(abs(z) - t, 0.0))


def lasso_objective(Xs, yc, beta, alpha):
    r = yc - Xs @ beta
    return float(r @ r / (2.0 * yc.size) + alpha * np.abs(beta).sum())


# z at the edges of the threshold t = 1: signed zeros, |z| = t, inside and
# outside the dead zone, infinities and NaN
THRESHOLD_EDGES = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0,
                   math.inf, -math.inf, math.nan)
# the same edges as the Gram sweep can meet them: rho = -0.0 needs
# beta = -0.0, and any zero then leaves beta as it is
SWEEP_EDGES = (0.0, 0.5, -0.5, 1.0, -1.0, 2.5, -2.0, math.inf, -math.inf, math.nan)


class TestSoftThreshold:
    def test_cases(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(-1.7, 0.0) == -1.7

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)
        with pytest.raises(ValueError):
            soft_threshold(1.0, math.nan)

    @pytest.mark.parametrize("t", (0.0, 1.0, math.inf))
    @pytest.mark.parametrize("z", THRESHOLD_EDGES)
    def test_bits_match_numpy_formula(self, z, t):
        assert soft_threshold(z, t).hex() == numpy_threshold(z, t).hex()

    @pytest.mark.parametrize("z", SWEEP_EDGES)
    def test_inline_sweep_threshold_bits(self, z):
        # one unit-norm coordinate at beta = 0.5, so rho = (z - 0.5) + 0.5
        # is z exactly and the sweep stores the thresholded rho itself
        beta = [0.5]
        with np.errstate(invalid="ignore"):
            _gram_sweep(range(1), beta, np.array([z - 0.5]), np.ones((1, 1)), [1.0], 1.0)
        assert beta[0].hex() == numpy_threshold(z, 1.0).hex()


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
        # a random d on 150 rows, then n <= 4d: few rows per column
        for n, d in [(150, None)] * 10 + [(40, 12)] * 10 + [(30, 8)] * 10:
            d = d or int(rng.integers(2, 21))
            X = orthonormal_design(rng, n, d)
            y = X @ (rng.normal(0, 1, d) * 0.5) + rng.normal(0, 0.3, n)
            yc = y - y.mean()
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

    def test_objective_monotone_over_sweeps(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (60, 10))
        X[:, 5:] = X[:, :5] * 0.95 + rng.normal(0, 0.1, (60, 5))
        y = X @ rng.normal(0, 1, 10) + rng.normal(0, 0.5, 60)
        Xs = Scaler.fit(X).transform(X)
        yc = y - y.mean()
        hist = [lasso_objective(Xs, yc, np.zeros(10), 0.01)]

        def recording_sweep(indices, beta, *args):
            max_delta = _gram_sweep(indices, beta, *args)
            hist.append(lasso_objective(Xs, yc, np.array(beta), 0.01))
            return max_delta

        monkeypatch.setattr(lasso, "_gram_sweep", recording_sweep)
        model = lasso_fit(X, y, 0.01)
        assert len(hist) == model.n_sweeps + 1 >= 2
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

    @pytest.mark.parametrize("where", ["X", "y"])
    def test_non_finite_input_rejected(self, where):
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (60, 3))
        y = X[:, 0] + rng.normal(0, 0.1, 60)
        (X[5] if where == "X" else y[5:6])[0] = np.nan
        with pytest.raises(NumericError, match="lasso input contains non-finite values"):
            lasso_fit(X, y, 0.01)

    def test_overflowing_target_rejected_at_entry(self):
        # finite cells, but the starting objective yc @ yc overflows
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (60, 3))
        y = X[:, 0] + rng.normal(0, 0.1, 60)
        y[30] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning
            with pytest.raises(NumericError, match="objective"):
                lasso_fit(X, y, 0.01)

    @pytest.mark.parametrize("alpha", (-0.1, math.nan, math.inf))
    def test_alpha_must_be_finite_and_non_negative(self, alpha):
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (20, 2))
        with pytest.raises(DriftcastError, match="alpha must be finite and >= 0"):
            lasso_fit(X, X[:, 0], alpha)
        with pytest.raises(DriftcastError, match="alphas must be finite and >= 0"):
            LassoConfig(alpha_grid=(0.1, alpha))

    def test_constant_column_gets_zero_weight(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (50, 3))
        X[:, 1] = 7.0
        y = X[:, 0] * 2.0 + rng.normal(0, 0.1, 50)
        model = lasso_fit(X, y, 0.01)
        assert model.coefficients[1] == 0.0


def synth_rows(degree, rows=2000):
    fm = build_features(generate(), TARGET_COLUMN, FeatureSpec(polynomial_degree=degree))
    return fm.X[:rows], fm.y[:rows]


def correlated_design(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    h = d // 2
    X[:, h:2 * h] = X[:, :h] * 0.95 + rng.normal(0, 0.1, (n, h))
    return X, X @ rng.normal(0, 1, d) + rng.normal(0, 0.5, n)


# (sha256 of coefficients.tobytes(), n_sweeps, converged) per solver case,
# recorded with numpy 2.4.6 on x86-64; the first four while the sweep still
# ran on numpy scalars. "degree2" spends most of its sweeps on the active
# set and ends with nine -0.0 coefficients. 40x12 has n <= 4d rows; 60x10
# has n > 4d and is the design that used to record its objective.
SOLVER_GOLDEN = {
    "degree2": ("c90a6796961ab80ce4154758e547058f89fce119384fe502f6c3ad8d6bf16f7e",
                1744, True),
    "degree1": ("7323141678af5d92c0cc43321fe5408616f167cf126be68ce3a8ba397594fa3e",
                10, True),
    "not_converged": ("1d45e830eb0cf57adac44f682d8a2f4d838b0fb8479aba7b9417899229fe62f6",
                      50, False),
    "all_zero": ("f9d54bbe3ccaf08564c2928c55218a3f696989a05dffc8edf057773751aae153",
                 1, True),
    "small_40x12": ("483e978866508dfd1d940a6a408c99228f449b97a797581f5b379aff0b09dcba",
                    1980, True),
    "small_60x10": ("f5ab46a0a0e674b69b94dc95bcf8573b0089c9bc58c5abac9985b48c2b7bb6c1",
                    1240, True),
}


@pytest.fixture(scope="module")
def solver_cases():
    X2, y2 = synth_rows(2)
    X1, y1 = synth_rows(1)
    return {
        "degree2": (X2, y2, 0.001, LassoConfig()),
        "degree1": (X1, y1, 0.001, LassoConfig()),
        "not_converged": (X2, y2, 0.001, LassoConfig(max_iter=50)),
        "all_zero": (X2, y2, 0.1, LassoConfig()),
        "small_40x12": (*correlated_design(11, 40, 12), 0.01, LassoConfig()),
        "small_60x10": (*correlated_design(12, 60, 10), 0.01, LassoConfig()),
    }


@pytest.mark.parametrize("case", sorted(SOLVER_GOLDEN))
def test_solver_golden_bits(solver_cases, case):
    X, y, alpha, config = solver_cases[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = lasso_fit(X, y, alpha, config)
    got = (hashlib.sha256(model.coefficients.tobytes()).hexdigest(),
           model.n_sweeps, model.converged)
    assert got == SOLVER_GOLDEN[case]
    assert [w.category for w in caught] == ([DidNotConverge] if case == "not_converged" else [])
    if case == "all_zero":
        assert np.count_nonzero(model.coefficients) == 0


# lasso_cv on the default synth series' training block (27,883 rows):
# (sha256 of coefficients.tobytes(), sha256 of dumps(cv_results), n_sweeps),
# recorded with numpy 2.4.6 on x86-64 while CV still looped alpha-outer
# and standardized each fold once per alpha
CV_GOLDEN = {
    1: ("488413fddffd4592f15603806ea4644dd08696dc361551aa5b14f0146206f655",
        "34e8d9a2042f4314b37967981794f1983a98c9e702c2767cd045e7ceebf30538", 2180),
    2: ("05377335cde5905811af8abe106caa7bc2476a46465b2b458f9dccafadb70335",
        "b3eb157c4c67db8be4e3610cb6a2e7eba359771a70fbed618c4ad0fba94b6143", 6988),
}


@pytest.mark.parametrize("degree", sorted(CV_GOLDEN))
def test_cv_golden_bits(degree):
    frame = generate()
    fm = build_features(frame, TARGET_COLUMN, FeatureSpec(polynomial_degree=degree))
    model = lasso_cv(fm.slice(0, SplitSpec().boundary(frame.n) - fm.origin_index))
    assert (hashlib.sha256(model.coefficients.tobytes()).hexdigest(),
            hashlib.sha256(dumps(model.cv_results).encode()).hexdigest(),
            model.n_sweeps) == CV_GOLDEN[degree]


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
        with pytest.raises(DriftcastError, match="need at least 6 rows for 5 folds, have 5"):
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
        counts = [np.count_nonzero(lasso_fit(X, y, a).coefficients) for a in sorted(GRID)]
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
        # one target in the last validation block, which no fold trains on,
        # overflows the squared error: every alpha's mean MSE is infinite
        rng = np.random.default_rng(12)
        X = rng.normal(0, 1, (60, 3))
        y = X[:, 0] + rng.normal(0, 0.1, 60)
        y[-1] = 1e300
        with pytest.raises(NumericError, match="cross-validation"):
            lasso_cv(feature_matrix(X, y), LassoConfig(max_iter=20))

    def test_overflowing_target_fails_at_first_fit(self, monkeypatch):
        rng = np.random.default_rng(12)
        X = rng.normal(0, 1, (60, 3))
        y = X[:, 0] + rng.normal(0, 0.1, 60)
        y[5] = 1e300  # inside the first fold's training rows
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(args[2])
            return lasso_fit(*args, **kwargs)

        monkeypatch.setattr(lasso, "lasso_fit", counting_fit)
        with pytest.raises(NumericError, match="objective"):
            lasso_cv(feature_matrix(X, y))
        assert calls == [0.001]

    def test_non_finite_features_rejected_at_entry(self):
        rng = np.random.default_rng(13)
        X = rng.normal(0, 1, (60, 3))
        X[5, 1] = np.nan
        y = X[:, 0] + rng.normal(0, 0.1, 60)
        with pytest.raises(NumericError, match="non-finite values"):
            lasso_cv(feature_matrix(X, y))

    def test_too_few_rows(self):
        rng = np.random.default_rng(11)
        with pytest.raises(DriftcastError, match="need at least 7 rows for 5 folds, have 5"):
            lasso_cv(feature_matrix(rng.normal(0, 1, (5, 2)), rng.normal(0, 1, 5)))

    def test_row_minimum_leaves_the_first_fold_two_rows(self, monkeypatch):
        config = LassoConfig()
        rng = np.random.default_rng(14)
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(args[0].shape[0])
            return lasso_fit(*args, **kwargs)

        monkeypatch.setattr(lasso, "lasso_fit", counting_fit)
        short = config.cv_folds + 1  # its first fold would train on one row
        with pytest.raises(DriftcastError, match=f"need at least {short + 1} rows"):
            lasso_cv(feature_matrix(rng.normal(0, 1, (short, 2)), rng.normal(0, 1, short)),
                     config)
        assert calls == []
        n = short + 1
        model = lasso_cv(feature_matrix(rng.normal(0, 1, (n, 2)), rng.normal(0, 1, n)), config)
        assert min(calls) == 2
        assert len(model.cv_results) == len(GRID) * config.cv_folds
        assert config.min_rows == n


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
