import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcast import lasso
from driftcast.errors import DidNotConverge, DriftcastError, NumericError
from driftcast.features import FeatureMatrix, FeatureSpec, build_features
from driftcast.frame import Scaler, SplitSpec
from driftcast.lasso import (
    DEFAULT_ALPHA_GRID,
    LassoConfig,
    lasso_cv,
    lasso_fit,
    timeseries_folds,
)
from driftcast.synth import TARGET_COLUMN, SynthConfig, generate
from kkt import KKT_TOL, kkt_violation

GRID = (0.001, 0.01, 0.1, 1.0)


def orthonormal_design(rng, n, d):
    A = rng.normal(0, 1, (n, d))
    A -= A.mean(axis=0)
    Q, _ = np.linalg.qr(A)
    return np.sqrt(n) * Q[:, :d]  # X'X/n = I, zero-mean unit-std columns


def feature_matrix(X, y):
    """Rows stamped 0, 1, 2, ... seconds: the fits read no timestamp."""
    return FeatureMatrix(X, y, tuple(f"f{i}" for i in range(X.shape[1])), 0,
                         np.arange(len(y)))


def numpy_threshold(z, t):
    return float(np.sign(z) * max(abs(z) - t, 0.0))


def lasso_objective(Xs, yc, beta, alpha):
    r = yc - Xs @ beta
    return float(r @ r / (2.0 * yc.size) + alpha * np.abs(beta).sum())


# z at the edges of the threshold t = 1 as a one-column fit can meet
# them: zero, |z| = t, inside and outside the dead zone, infinities and NaN
SWEEP_EDGES = (0.0, 0.5, -0.5, 1.0, -1.0, 2.5, -2.0, math.inf, -math.inf, math.nan)


class TestSoftThreshold:
    @pytest.mark.parametrize("z", SWEEP_EDGES)
    def test_inline_sweep_threshold_bits(self, z):
        # a one-column fit is the threshold itself: X = (1, -1) standardizes
        # to itself and y = (z, -z) is centered, so X'y/n is z exactly and G
        # is 1. A zero coefficient is +0.0; a non-finite target is rejected.
        X, y = np.array([[1.0], [-1.0]]), np.array([z, -z])
        if not math.isfinite(z):
            with pytest.raises(NumericError, match="non-finite"):
                lasso_fit(X, y, 1.0)
            return
        model = lasso_fit(X, y, 1.0)
        assert model.coefficients[0].hex() == (numpy_threshold(z, 1.0) + 0.0).hex()
        assert model.converged and model.n_sweeps == (abs(z) > 1.0)


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
                    [numpy_threshold(float(X[:, j] @ yc / n), alpha) for j in range(d)])
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
        Xs = Scaler.fit(X).transform(X)
        yc = y - y.mean()
        full = lasso_fit(X, y, 0.01)
        hist = [lasso_objective(Xs, yc, np.zeros(10), 0.01)]
        # a budget of k solves stops where the full fit stood after k
        for k in range(1, full.n_sweeps):
            with pytest.warns(DidNotConverge):
                hist.append(lasso_objective(
                    Xs, yc, lasso_fit(X, y, 0.01, LassoConfig(max_iter=k)).coefficients, 0.01))
        hist.append(lasso_objective(Xs, yc, full.coefficients, 0.01))
        assert full.n_sweeps >= 5
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_kkt_at_convergence(self):
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (300, 12))
        X[:, 6:] = X[:, :6] * 0.9 + rng.normal(0, 0.2, (300, 6))
        y = X @ rng.normal(0, 1, 12) + rng.normal(0, 0.5, 300)
        for alpha in GRID:
            model = lasso_fit(X, y, alpha)
            assert model.converged
            Xs = model.scaler.transform(X)
            viol = kkt_violation(Xs, y - model.intercept, model.coefficients, alpha)
            assert viol <= alpha + 1e-6 and viol <= 1e-6

    def test_fewer_rows_than_columns(self):
        # every column past the fifth lies in the span of five others, so
        # columns enter by trading places with an active one
        rng = np.random.default_rng(15)
        X = rng.normal(0, 1, (6, 20))
        y = X @ rng.normal(0, 1, 20) + rng.normal(0, 0.1, 6)
        for alpha in (0.0, *GRID):
            model = lasso_fit(X, y, alpha)
            Xs = model.scaler.transform(X)
            assert model.converged and np.count_nonzero(model.coefficients) <= 5
            assert kkt_violation(Xs, y - model.intercept, model.coefficients,
                                 alpha) <= 0.5 * KKT_TOL

    def test_did_not_converge_is_warning(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (80, 10))
        X[:, 5:] = X[:, :5] + rng.normal(0, 1e-4, (80, 5))  # near-duplicate columns
        y = X @ rng.normal(0, 1, 10) + rng.normal(0, 0.1, 80)
        config = LassoConfig(max_iter=2)
        with pytest.warns(DidNotConverge, match="after 2 active-set solves"):
            model = lasso_fit(X, y, 0.001, config)
        assert not model.converged and model.n_sweeps == 2
        assert lasso_fit(X, y, 0.001).converged

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
# recorded with numpy 2.4.6 on x86-64; n_sweeps counts active-set solves.
# "all_zero" needs none. 40x12 has n <= 4d rows; 60x10 has n > 4d.
SOLVER_GOLDEN = {
    "degree2": ("3785c4ce9f463f44e9e907d30324ed027b8163536cd9165040348d54163531ff",
                24, True),
    "degree1": ("488b359cfcb3cdbafe97fb7de65d7ed7a106b07096f324f1810748216078d611",
                9, True),
    "not_converged": ("d1a9a2d87ac4ac29001a183b3ff9ba2a7295adff00c44ad15df258c0a2f3bf37",
                      10, False),
    "all_zero": ("f9d54bbe3ccaf08564c2928c55218a3f696989a05dffc8edf057773751aae153",
                 0, True),
    "small_40x12": ("49eb3a05b2af1a8022ec4a2dd5452dbbaf14ac465cfbe982956a45d3a272cd40",
                    7, True),
    "small_60x10": ("988068f5633508002f76e7642c451da5b6b91b6f227f4e48c9807c7b1558ab81",
                    7, True),
}


@pytest.fixture(scope="module")
def solver_cases():
    X2, y2 = synth_rows(2)
    X1, y1 = synth_rows(1)
    return {
        "degree2": (X2, y2, 0.001, LassoConfig()),
        "degree1": (X1, y1, 0.001, LassoConfig()),
        "not_converged": (X2, y2, 0.001, LassoConfig(max_iter=10)),
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
# (sha256 of coefficients.tobytes(), sha256 of json.dumps(cv_results), n_sweeps),
# recorded with numpy 2.4.6 on x86-64; the degree-2 CV table again when
# predictions summed each row in an order that ignores the BLAS thread count
CV_GOLDEN = {
    1: ("82ee099f63df660dac3124d235f0e09ebb95dc37f05d94cc992e1821f7c3dec7",
        "dd289d07eb91b2784759a883daf04613fcb4c74f168d858bf45853e8864adf39", 10),
    2: ("f633a4936dbf696fcd09eb1906ad97da3b2dda68b37dff18dfd67bb2a8ffb0a3",
        "de5bc288ca47034a7df8ff893202edf5a53f4f9862220a6df2ebee0fac139489", 23),
}


@pytest.mark.parametrize("degree", sorted(CV_GOLDEN))
def test_cv_golden_bits(degree):
    frame = generate()
    fm = build_features(frame, TARGET_COLUMN, FeatureSpec(polynomial_degree=degree))
    model = lasso_cv(fm.slice(0, SplitSpec().boundary(frame.n) - fm.origin_index))
    assert (hashlib.sha256(model.coefficients.tobytes()).hexdigest(),
            hashlib.sha256(json.dumps(model.cv_results).encode()).hexdigest(),
            model.n_sweeps) == CV_GOLDEN[degree]


# degree-2 CV folds whose active blocks are ill-conditioned (eigenvalues
# down to about 1e-6), where a cyclic solver stalls short of the optimum:
# (synth seed, training rows, alpha)
STALLED_FITS = ((100, 9295, 0.001), (100, 9295, 0.01), (103, 23236, 0.1))


@pytest.mark.parametrize("seed,rows,alpha", STALLED_FITS)
def test_ill_conditioned_degree2_fold_converges(seed, rows, alpha):
    frame = generate(SynthConfig(seed=seed))
    fm = build_features(frame, TARGET_COLUMN, FeatureSpec(polynomial_degree=2))
    train = fm.slice(0, SplitSpec().boundary(frame.n) - fm.origin_index)
    assert rows in [edge for edge, _ in timeseries_folds(train.rows, 5)]
    X, y = train.X[:rows], train.y[:rows]
    model = lasso_fit(X, y, alpha)
    Xs = model.scaler.transform(X)
    assert model.converged and model.n_sweeps <= 20
    assert kkt_violation(Xs, y - model.intercept, model.coefficients, alpha) <= 0.5 * KKT_TOL


@st.composite
def hard_designs(draw):
    """A small design mixing correlated columns, a constant column and a
    later +/- copy of an earlier column that matches it up to rounding.
    Returns (X, y, the copy's index, the constant's index)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(12, 60))
    k = draw(st.integers(2, 6))
    X = rng.normal(0, 1, (n, k))
    for j in range(1, k):
        if draw(st.booleans()):  # correlated with the column before it
            X[:, j] = X[:, j - 1] * draw(st.floats(0.5, 0.99)) + rng.normal(0, 0.2, n)
    y = X @ rng.normal(0, 2, k) + rng.normal(0, draw(st.floats(0.01, 1.0)), n)
    source = draw(st.integers(0, k - 1))
    scale = draw(st.sampled_from((-3.0, -1.0, 0.5, 7.0)))
    copy = scale * X[:, source] + draw(st.floats(-5.0, 5.0))
    const = draw(st.integers(0, k))
    X = np.insert(X, const, draw(st.floats(-10.0, 10.0)), axis=1)
    return np.column_stack((X, copy)), y, k + 1, const


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hard_designs(), st.sampled_from((0.0, *DEFAULT_ALPHA_GRID)))
def test_exact_on_designs_with_copies(design, alpha):
    X, y, copy, const = design
    model = lasso_fit(X, y, alpha)
    Xs = model.scaler.transform(X)
    yc = y - model.intercept
    assert model.converged
    assert kkt_violation(Xs, yc, model.coefficients, alpha) <= 0.5 * KKT_TOL
    assert model.coefficients[copy] == 0.0 and model.coefficients[const] == 0.0
    if alpha == 0.0:  # without the copy and the constant, the design has full rank
        keep = [j for j in range(X.shape[1]) if j not in (copy, const)]
        ols = np.linalg.lstsq(Xs[:, keep], yc, rcond=None)[0]
        np.testing.assert_allclose(model.coefficients[keep], ols, rtol=1e-8, atol=1e-8)


class TestFolds:
    def test_twelve_rows_five_folds(self):
        assert timeseries_folds(12, 5) == [(2, 4), (4, 6), (6, 8), (8, 10), (10, 12)]

    def test_expanding_window_property(self):
        for n, k in ((12, 5), (37, 5), (101, 7)):
            folds = timeseries_folds(n, k)
            edges = [edge for edge, _ in folds]
            assert all(edge < stop for edge, stop in folds)  # validation after training
            assert all(a < b for a, b in zip(edges, edges[1:]))  # training grows

    def test_validation_blocks_partition_tail(self):
        folds = timeseries_folds(37, 5)
        assert [stop for _, stop in folds[:-1]] == [edge for edge, _ in folds[1:]]
        assert folds[-1][1] == 37

    def test_remainder_to_earliest_blocks(self):
        # 13 = 6 blocks of 2 plus one row, which the first block absorbs
        assert timeseries_folds(13, 5) == [(3, 5), (5, 7), (7, 9), (9, 11), (11, 13)]

    def test_too_few_rows(self):
        with pytest.raises(DriftcastError, match="need at least 6 rows for 5 folds, have 5"):
            timeseries_folds(5, 5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_folds(self, k):
        with pytest.raises(DriftcastError, match=f"need at least 1 fold, got {k}"):
            timeseries_folds(10, k)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(k=st.integers(1, 12), extra=st.integers(0, 500))
    def test_blocks_split_the_rows_evenly(self, k, extra):
        n = k + 1 + extra
        folds = timeseries_folds(n, k)
        bounds = [0, *(edge for edge, _ in folds), n]
        assert len(folds) == k and folds[-1][1] == n
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert [stop for _, stop in folds] == bounds[2:]
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1


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
        assert not np.allclose(early.scaler.means, late.scaler.means)

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

    def test_overflowing_target_fails_before_any_fit(self, monkeypatch):
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
        # the first fold's standardization raises, before any alpha is fit
        assert calls == []

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
