"""Feedforward regressor trained from scratch with Adam and early stopping.

Two ReLU hidden layers (64 units each by default) with inverted dropout,
a single linear output, batch-mean MSE loss. Everything is plain numpy
and fully determined by (config, data, seed): weight init, per-epoch
shuffling and dropout masks all come from one seeded generator, so a
repeated run reproduces the trained weights bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonFiniteLoss, ShapeMismatch, TooFewRows
from .features import FeatureMatrix
from .frame import STD_FLOOR, Scaler

# "does not improve" for early stopping means: fails to beat the running
# best by at least this absolute margin.
IMPROVEMENT_TOL = 1e-6

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class MlpConfig:
    hidden: tuple[int, ...] = (64, 64)
    dropout_rate: float = 0.2
    learning_rate: float = 0.001
    batch_size: int = 64
    max_epochs: int = 300
    patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidConfig("dropout_rate must lie in [0, 1)")
        if self.patience < 1:
            raise InvalidConfig("patience must be >= 1")
        if self.max_epochs < 1:
            raise InvalidConfig(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0.0 < self.val_fraction < 0.5:
            raise InvalidConfig("val_fraction must lie in (0, 0.5)")
        if any(h < 1 for h in self.hidden):
            raise InvalidConfig("hidden layer widths must be positive")

    def to_dict(self) -> dict:
        return {
            "hidden": list(self.hidden),
            "dropout_rate": self.dropout_rate,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "max_epochs": self.max_epochs,
            "patience": self.patience,
            "val_fraction": self.val_fraction,
            "seed": self.seed,
        }


@dataclass
class MlpModel:
    """Trained parameters plus the scalers fitted alongside them.

    ``weights[i]`` maps layer i activations to layer i+1; the last entry
    is the linear output head. Inputs are standardized with
    ``input_scaler`` before the forward pass; predictions are mapped back
    through ``target_scaler``.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout_rate: float
    input_scaler: Scaler
    target_scaler: Scaler
    config: MlpConfig | None = None

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[0]

    def to_dict(self) -> dict:
        return {
            "architecture": [int(w.shape[0]) for w in self.weights] + [1],
            "dropout_rate": self.dropout_rate,
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "input_mean": self.input_scaler.means.tolist(),
            "input_std": self.input_scaler.stds.tolist(),
            "target_mean": float(self.target_scaler.means[0]),
            "target_std": float(self.target_scaler.stds[0]),
        }


@dataclass
class TrainReport:
    """Per-epoch losses and where early stopping landed (epochs 1-based)."""

    train_loss: list[float]
    val_loss: list[float]
    stopped_epoch: int
    best_epoch: int

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss"])
            for i, (tr, va) in enumerate(zip(self.train_loss, self.val_loss), start=1):
                writer.writerow([i, format(tr, ".17g"), format(va, ".17g")])


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def apply_dropout(h: np.ndarray, mask: np.ndarray, rate: float) -> np.ndarray:
    """Inverted dropout: zero masked units, rescale the rest by 1/(1-rate)."""
    if rate == 0.0:
        return h
    return h * mask / (1.0 - rate)


def draw_masks(rng: np.random.Generator, batch: int, hidden, rate: float) -> list[np.ndarray]:
    """One keep/drop mask per hidden layer for a batch (True = keep)."""
    return [rng.random((batch, width)) >= rate for width in hidden]


def _forward_cached(model: MlpModel, X: np.ndarray, masks):
    """Forward pass keeping pre-activations and post-dropout activations."""
    rate = model.dropout_rate if masks is not None else 0.0
    a = X
    zs, acts = [], [X]
    n_hidden = len(model.weights) - 1
    for i in range(n_hidden):
        z = a @ model.weights[i] + model.biases[i]
        h = relu(z)
        if masks is not None:
            h = apply_dropout(h, masks[i], rate)
        zs.append(z)
        acts.append(h)
        a = h
    out = a @ model.weights[-1] + model.biases[-1]
    return out[:, 0], zs, acts


def mlp_forward(model: MlpModel, X: np.ndarray, mode: str = "eval",
                masks=None, rng: np.random.Generator | None = None) -> np.ndarray:
    """Predictions in the model's (standardized) output space.

    ``mode="train"`` applies inverted dropout using ``masks`` (or masks
    drawn from ``rng``); ``mode="eval"`` is deterministic.
    """
    X = np.asarray(X, float)
    if X.ndim != 2 or X.shape[1] != model.n_inputs:
        raise ShapeMismatch(f"X must be (n, {model.n_inputs}), got {X.shape}")
    if mode == "eval":
        masks = None
    elif mode == "train":
        if model.dropout_rate > 0.0 and masks is None:
            if rng is None:
                raise ValueError("train mode with dropout needs masks or an rng")
            hidden = [w.shape[1] for w in model.weights[:-1]]
            masks = draw_masks(rng, X.shape[0], hidden, model.dropout_rate)
        elif model.dropout_rate == 0.0:
            masks = None
    else:
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    out, _, _ = _forward_cached(model, X, masks)
    return out


def mlp_gradients(model: MlpModel, X: np.ndarray, y: np.ndarray, masks=None):
    """Exact gradients of batch-mean MSE w.r.t. every weight and bias.

    Dropout masks, when given, are held fixed so the gradient matches the
    corresponding stochastic forward pass exactly.
    """
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    if X.ndim != 2 or X.shape[1] != model.n_inputs:
        raise ShapeMismatch(f"X must be (n, {model.n_inputs}), got {X.shape}")
    if y.shape != (X.shape[0],):
        raise ShapeMismatch("y must be a vector matching X rows")
    if X.shape[0] == 0:
        raise ShapeMismatch("empty batch")
    yhat, zs, acts = _forward_cached(model, X, masks)
    return _backward(model, y, masks, yhat, zs, acts)


def _backward(model: MlpModel, y: np.ndarray, masks, yhat, zs, acts):
    batch = y.shape[0]
    rate = model.dropout_rate if masks is not None else 0.0
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)

    delta = (2.0 * (yhat - y) / batch)[:, None]
    grads_w[-1] = acts[-1].T @ delta
    grads_b[-1] = delta.sum(axis=0)
    d_act = delta @ model.weights[-1].T
    for i in range(len(zs) - 1, -1, -1):
        if masks is not None:
            d_act = apply_dropout(d_act, masks[i], rate)
        dz = d_act * (zs[i] > 0.0)
        grads_w[i] = acts[i].T @ dz
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            d_act = dz @ model.weights[i].T
    return grads_w, grads_b


def mse(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(np.mean(d * d))


def _init_params(rng: np.random.Generator, sizes: list[int]):
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def mlp_train(config: MlpConfig, features: FeatureMatrix) -> tuple[MlpModel, TrainReport]:
    """Train on a feature matrix; returns the best-validation-epoch model.

    The chronological tail (``val_fraction`` of rows) is held out for
    early stopping and never shuffled across the boundary. Scalers for
    inputs and target are fitted on the training rows only. Training
    stops once the validation MSE fails to improve by ``IMPROVEMENT_TOL``
    for ``patience`` consecutive epochs, and the weights from the
    best-validation epoch are restored.
    """
    rows = features.rows
    if rows < 10:
        raise TooFewRows(f"need at least 10 rows to train, have {rows}")

    n_val = max(1, int(math.floor(rows * config.val_fraction)))
    n_train = rows - n_val

    x_mean = features.X[:n_train].mean(axis=0)
    x_std = np.maximum(features.X[:n_train].std(axis=0), STD_FLOOR)
    y_mean = float(features.y[:n_train].mean())
    y_std = max(float(features.y[:n_train].std()), STD_FLOOR)
    input_scaler = Scaler(features.feature_names, x_mean, x_std)
    target_scaler = Scaler(("target",), np.array([y_mean]), np.array([y_std]))

    Xs = (features.X - x_mean) / x_std
    ys = (features.y - y_mean) / y_std
    X_tr, y_tr = Xs[:n_train], ys[:n_train]
    X_va, y_va = Xs[n_train:], ys[n_train:]

    rng = np.random.default_rng(config.seed)
    d = features.X.shape[1]
    sizes = [d] + list(config.hidden) + [1]
    weights, biases = _init_params(rng, sizes)
    model = MlpModel(weights, biases, config.dropout_rate,
                     input_scaler, target_scaler, config)

    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    step = 0

    train_hist: list[float] = []
    val_hist: list[float] = []
    best_val = math.inf          # strict best: weight snapshots / best_epoch
    patience_best = math.inf     # tolerance-gated best: drives the patience clock
    best_epoch = 0
    wait = 0
    snapshot = ([w.copy() for w in weights], [b.copy() for b in biases])

    # overflow in a diverging run is reported through NonFiniteLoss, not
    # as a stream of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(n_train)
            batch_losses = []
            for start in range(0, n_train, config.batch_size):
                idx = order[start:start + config.batch_size]
                xb, yb = X_tr[idx], y_tr[idx]
                masks = None
                if config.dropout_rate > 0.0:
                    masks = draw_masks(rng, xb.shape[0], config.hidden,
                                       config.dropout_rate)
                yhat, zs, acts = _forward_cached(model, xb, masks)
                batch_losses.append(mse(yhat, yb))
                gw, gb = _backward(model, yb, masks, yhat, zs, acts)
                step += 1
                corr1 = 1.0 - ADAM_BETA1 ** step
                corr2 = 1.0 - ADAM_BETA2 ** step
                for i in range(len(weights)):
                    m_w[i] = ADAM_BETA1 * m_w[i] + (1 - ADAM_BETA1) * gw[i]
                    v_w[i] = ADAM_BETA2 * v_w[i] + (1 - ADAM_BETA2) * gw[i] ** 2
                    weights[i] -= config.learning_rate * (m_w[i] / corr1) / (
                        np.sqrt(v_w[i] / corr2) + ADAM_EPS)
                    m_b[i] = ADAM_BETA1 * m_b[i] + (1 - ADAM_BETA1) * gb[i]
                    v_b[i] = ADAM_BETA2 * v_b[i] + (1 - ADAM_BETA2) * gb[i] ** 2
                    biases[i] -= config.learning_rate * (m_b[i] / corr1) / (
                        np.sqrt(v_b[i] / corr2) + ADAM_EPS)

            train_loss = float(np.mean(batch_losses))
            val_loss = mse(mlp_forward(model, X_va, "eval"), y_va)
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                raise NonFiniteLoss(f"training diverged at epoch {epoch}")
            train_hist.append(train_loss)
            val_hist.append(val_loss)

            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                snapshot = ([w.copy() for w in weights],
                            [b.copy() for b in biases])
            if val_loss < patience_best - IMPROVEMENT_TOL:
                patience_best = val_loss
                wait = 0
            else:
                wait += 1
                if wait >= config.patience:
                    break

    model.weights = snapshot[0]
    model.biases = snapshot[1]
    report = TrainReport(train_hist, val_hist, stopped_epoch=len(val_hist),
                         best_epoch=best_epoch)
    return model, report


def mlp_predict(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Eval-mode predictions mapped back to original target units.

    ``X`` must already be standardized with the model's own input scaler.
    """
    out = mlp_forward(model, X, "eval")
    return out * model.target_scaler.stds[0] + model.target_scaler.means[0]
