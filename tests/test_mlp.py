import numpy as np
import pytest

from driftcast.errors import DriftcastError, NumericError
from driftcast.features import FeatureMatrix
from driftcast.frame import Scaler
from driftcast.mlp import (
    MlpConfig,
    MlpModel,
    apply_dropout,
    draw_masks,
    mlp_forward,
    mlp_gradients,
    mlp_predict,
    mlp_train,
    relu,
)


def toy_model(rng, d, hidden, dropout=0.0):
    sizes = [d] + list(hidden) + [1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0, 0.7, (fan_in, fan_out)))
        biases.append(rng.normal(0, 0.3, fan_out))
    ident_in = Scaler(np.zeros(d), np.ones(d))
    ident_out = Scaler(np.zeros(1), np.ones(1))
    return MlpModel(weights, biases, dropout, ident_in, ident_out)


def feature_matrix(X, y):
    return FeatureMatrix(X, y, tuple(f"f{i}" for i in range(X.shape[1])), 0)


def numeric_gradients(model, X, y, masks, eps=1e-5):
    def loss():
        yh = mlp_forward(model, X, masks=masks)
        return float(np.mean((yh - y) ** 2))

    out_w, out_b = [], []
    for params, sink in ((model.weights, out_w), (model.biases, out_b)):
        for P in params:
            G = np.zeros_like(P)
            it = np.nditer(P, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                keep = P[ix]
                P[ix] = keep + eps
                up = loss()
                P[ix] = keep - eps
                down = loss()
                P[ix] = keep
                G[ix] = (up - down) / (2 * eps)
            sink.append(G)
    return out_w, out_b


class TestForward:
    def test_relu_definition(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])),
                                      [0.0, 0.0, 2.0])

    def test_bias_only_network(self):
        rng = np.random.default_rng(0)
        model = toy_model(rng, 3, [4])
        for w in model.weights:
            w[:] = 0.0
        model.biases[-1][:] = 2.5
        out = mlp_forward(model, rng.normal(0, 1, (6, 3)))
        np.testing.assert_allclose(out, 2.5)

    def test_zero_dropout_train_equals_eval(self):
        rng = np.random.default_rng(1)
        model = toy_model(rng, 4, [8, 8], dropout=0.0)
        X = rng.normal(0, 1, (10, 4))
        masks = draw_masks(rng, 10, [8, 8], 0.0)
        np.testing.assert_array_equal(mlp_forward(model, X, masks=masks),
                                      mlp_forward(model, X))

    def test_masks_are_keyword_only(self):
        rng = np.random.default_rng(1)
        model = toy_model(rng, 4, [8])
        with pytest.raises(TypeError):
            mlp_forward(model, rng.normal(0, 1, (3, 4)), "eval")

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        model = toy_model(rng, 3, [4])
        for X in (rng.normal(0, 1, (5, 2)), rng.normal(0, 1, (5, 1))):
            with pytest.raises(DriftcastError, match=r"X must be \(n, 3\), got \(5, "):
                mlp_forward(model, X)
            # not broadcast by the input scaler
            with pytest.raises(DriftcastError, match=r"X must be \(n, 3\), got \(5, "):
                mlp_predict(model, X)


class TestGradients:
    def test_perfect_fit_zero_gradient(self):
        rng = np.random.default_rng(3)
        model = toy_model(rng, 3, [5])
        X = rng.normal(0, 1, (7, 3))
        y = mlp_forward(model, X)
        gw, gb = mlp_gradients(model, X, y)
        assert all(np.allclose(g, 0.0) for g in gw + gb)

    def test_output_bias_gradient_formula(self):
        rng = np.random.default_rng(4)
        model = toy_model(rng, 3, [5])
        X = rng.normal(0, 1, (9, 3))
        y = rng.normal(0, 1, 9)
        yh = mlp_forward(model, X)
        _, gb = mlp_gradients(model, X, y)
        assert abs(gb[-1][0] - np.mean(2.0 * (yh - y))) < 1e-12

    def test_finite_difference_small_nets(self):
        worst = 0.0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 5))
            hidden = [4] if seed % 2 else [3, 4]
            model = toy_model(rng, d, hidden)
            X = rng.normal(0, 1, (6, d))
            y = rng.normal(0, 1, 6)
            masks = None
            if seed % 3 == 0:
                model.dropout_rate = 0.25
                masks = draw_masks(rng, 6, hidden, 0.25)
            gw, gb = mlp_gradients(model, X, y, masks)
            nw, nb = numeric_gradients(model, X, y, masks)
            for a, b in zip(gw + gb, nw + nb):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
                worst = max(worst, float(np.max(np.abs(a - b) / denom)))
        assert worst < 1e-5


class TestDropout:
    def test_expectation_matches_eval(self):
        rng = np.random.default_rng(5)
        h = rng.normal(0, 1, (1, 32))
        rate = 0.2
        acc = np.zeros_like(h)
        n_masks = 10_000
        for _ in range(n_masks):
            mask = rng.random(h.shape) >= rate
            acc += apply_dropout(h, mask, rate)
        mean = acc / n_masks
        big = np.abs(h) > 0.3
        rel = np.abs(mean[big] - h[big]) / np.abs(h[big])
        assert float(rel.max()) < 0.02

    def test_last_hidden_dropout_unbiased_output(self):
        # with a single hidden layer the head is linear in the dropped
        # activations, so the expectation over masks is the eval output
        rng = np.random.default_rng(6)
        model = toy_model(rng, 3, [16], dropout=0.3)
        X = rng.normal(0, 1, (4, 3))
        eval_out = mlp_forward(model, X)
        acc = np.zeros(4)
        n_masks = 20_000
        for _ in range(n_masks):
            acc += mlp_forward(model, X, masks=draw_masks(rng, 4, [16], 0.3))
        rel = np.abs(acc / n_masks - eval_out) / np.max(np.abs(eval_out))
        assert float(rel.max()) < 0.02


class TestTraining:
    def test_linear_target_low_val_mse(self):
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (500, 3))
        y = 2.0 * X[:, 0] + 1.0
        cfg = MlpConfig(dropout_rate=0.0, seed=1, patience=25)
        model, report = mlp_train(cfg, feature_matrix(X, y))
        assert report.val_loss[report.best_epoch - 1] < 1e-2
        preds = mlp_predict(model, X)
        assert float(np.mean((preds - y) ** 2)) < 1e-2

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(8)
        X = rng.normal(0, 1, (80, 4))
        y = rng.normal(0, 1, 80)
        cfg = MlpConfig(hidden=(8, 8), max_epochs=12, seed=3)
        m1, r1 = mlp_train(cfg, feature_matrix(X, y))
        m2, r2 = mlp_train(cfg, feature_matrix(X, y))
        assert r1.train_loss == r2.train_loss and r1.val_loss == r2.val_loss
        for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            assert np.array_equal(a, b)

    def test_constant_target_stops_early(self):
        rng = np.random.default_rng(9)
        X = rng.normal(0, 1, (200, 3))
        y = np.full(200, 4.2)
        cfg = MlpConfig(hidden=(8,), dropout_rate=0.0, batch_size=16,
                        learning_rate=0.01, seed=0)
        model, report = mlp_train(cfg, feature_matrix(X, y))
        assert report.stopped_epoch < 300
        assert report.val_loss[report.best_epoch - 1] < 1e-4

    def test_early_stopping_invariants(self):
        rng = np.random.default_rng(10)
        X = rng.normal(0, 1, (300, 4))
        y = X[:, 0] - 0.5 * X[:, 1] + rng.normal(0, 0.4, 300)
        cfg = MlpConfig(hidden=(16,), dropout_rate=0.1, max_epochs=80, seed=5)
        _, report = mlp_train(cfg, feature_matrix(X, y))
        assert report.stopped_epoch - report.best_epoch <= cfg.patience
        assert report.val_loss[report.best_epoch - 1] == min(report.val_loss)
        assert report.stopped_epoch <= cfg.max_epochs

    def test_too_few_rows(self):
        rng = np.random.default_rng(11)
        with pytest.raises(DriftcastError, match="need at least 10 rows to train, have 9"):
            mlp_train(MlpConfig(), feature_matrix(rng.normal(0, 1, (9, 2)),
                                                  rng.normal(0, 1, 9)))

    def test_divergence_guard(self):
        rng = np.random.default_rng(12)
        X = rng.normal(0, 1, (128, 3))
        y = rng.normal(0, 1, 128)
        cfg = MlpConfig(hidden=(8, 8), learning_rate=1e100, dropout_rate=0.0,
                        max_epochs=50, seed=0)
        with pytest.raises(NumericError, match="training diverged at epoch"):
            mlp_train(cfg, feature_matrix(X, y))


class TestPredict:
    def test_identical_rows_identical_predictions(self):
        rng = np.random.default_rng(13)
        model = toy_model(rng, 3, [6])
        row = rng.normal(0, 1, 3)
        X = np.tile(row, (5, 1))
        preds = mlp_predict(model, X)
        assert np.all(preds == preds[0])

    def test_zero_model_predicts_zero(self):
        rng = np.random.default_rng(14)
        model = toy_model(rng, 2, [4])
        for w in model.weights:
            w[:] = 0.0
        for b in model.biases:
            b[:] = 0.0
        np.testing.assert_array_equal(mlp_predict(model, rng.normal(0, 1, (6, 2))),
                                      np.zeros(6))

    def test_inverse_target_scaling(self):
        rng = np.random.default_rng(15)
        model = toy_model(rng, 2, [4])
        model.target_scaler = Scaler(np.array([10.0]), np.array([3.0]))
        X = rng.normal(0, 1, (5, 2))
        raw = mlp_forward(model, X)
        np.testing.assert_allclose(mlp_predict(model, X), raw * 3.0 + 10.0)

    def test_raw_features_go_through_the_input_scaler(self):
        rng = np.random.default_rng(16)
        model = toy_model(rng, 2, [4])
        model.input_scaler = Scaler(np.array([5.0, -1.0]), np.array([2.0, 0.5]))
        X = rng.normal(3, 2, (7, 2))
        expect = mlp_forward(model, (X - [5.0, -1.0]) / [2.0, 0.5])
        np.testing.assert_array_equal(mlp_predict(model, X), expect)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MlpConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            MlpConfig(patience=0)
        with pytest.raises(ValueError):
            MlpConfig(val_fraction=0.5)
        with pytest.raises(DriftcastError, match="max_epochs must be >= 1, got 0"):
            MlpConfig(max_epochs=0)
