"""Feedforward regressor trained from scratch with Adam and early stopping.

Two ReLU hidden layers (64 units each by default) with inverted dropout,
a single linear output, batch-mean MSE loss. Everything is plain numpy
and fully determined by (config, data, seed): weight init, per-epoch
shuffling and dropout masks all come from one seeded generator, so a
repeated run reproduces the trained weights bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DriftcastError, NumericError
from .features import FeatureMatrix
from .frame import BLOCK_ROWS, Scaler
from .serialize import write_csv

# "does not improve" for early stopping means: fails to beat the running
# best by at least this absolute margin.
IMPROVEMENT_TOL = 1e-6

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Most dropout draws taken from the generator at once (0.5 MB): 8 batches
# of 64 rows over two hidden layers of 64 units.
MASK_CHUNK = 8 * 64 * 128


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
            raise DriftcastError("dropout_rate must lie in [0, 1)")
        if self.patience < 1:
            raise DriftcastError("patience must be >= 1")
        if self.max_epochs < 1:
            raise DriftcastError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise DriftcastError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < math.inf:
            raise DriftcastError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 < self.val_fraction < 0.5:
            raise DriftcastError("val_fraction must lie in (0, 0.5)")
        if any(h < 1 for h in self.hidden):
            raise DriftcastError("hidden layer widths must be positive")

    @property
    def min_rows(self) -> int:
        """Fewest feature rows :func:`mlp_train` accepts."""
        return 10


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
        write_csv(path, ["epoch", "train_loss", "val_loss"],
                  zip(range(1, len(self.train_loss) + 1), self.train_loss, self.val_loss))


def _inputs(model: MlpModel, X) -> np.ndarray:
    X = np.asarray(X, float)
    if X.ndim != 2 or X.shape[1] != model.n_inputs:
        raise DriftcastError(f"X must be (n, {model.n_inputs}), got {X.shape}")
    return X


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat`` from its head, one per shape."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[at:at + size].reshape(shape))
        at += size
    return views


def _layers(flat: np.ndarray, sizes: list[int]):
    """Weight and bias views into one flat parameter vector, which holds
    each layer's weights (row-major), then its biases."""
    views = _views(flat, [shape for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
                          for shape in ((fan_in, fan_out), (fan_out,))])
    return views[0::2], views[1::2]


class _Pass:
    """Buffers for forward and backward passes over up to ``rows`` rows.

    ``acts[i]`` receives layer i's output: a hidden layer's activations
    after dropout, then the output column. ``gates[i]`` marks where hidden
    layer i passes a gradient back (ReLU active and, under dropout, kept);
    ``dacts[i]`` receives the loss gradient with respect to ``acts[i]``.
    A batch of fewer rows uses the leading rows of each buffer. Without
    ``train``, only the forward pass's buffers exist.
    """

    def __init__(self, weights, rows: int, train: bool = True):
        widths = [w.shape[1] for w in weights]
        self.acts = [np.empty((rows, w)) for w in widths]
        self.gates = [np.empty((rows, w), bool) for w in widths[:-1]] if train else None
        self.dacts = [np.empty((rows, w)) for w in widths] if train else None

    def forward(self, weights, biases, X, masks, rate: float) -> np.ndarray:
        """Output column for ``X``; ``masks`` (None in eval mode) hold one
        keep mask per hidden layer for inverted dropout at ``rate``."""
        n = X.shape[0]
        a = X
        for i in range(len(weights) - 1):
            h = self.acts[i][:n]
            np.matmul(a, weights[i], out=h)
            h += biases[i]
            np.maximum(h, 0.0, out=h)  # ReLU
            if self.gates is not None:
                gate = np.greater(h, 0.0, out=self.gates[i][:n])
                if masks is not None:
                    gate &= masks[i]
            if masks is not None:
                h *= masks[i]
                h /= 1.0 - rate
            a = h
        out = self.acts[-1][:n]
        np.matmul(a, weights[-1], out=out)
        out += biases[-1]
        return out[:, 0]

    def backward(self, weights, X, yhat, y, masks, rate: float, grads_w, grads_b) -> float:
        """Batch-mean MSE of the last :meth:`forward` (same ``X``, ``masks``
        and ``rate``); writes its exact gradients with respect to every
        weight and bias into ``grads_w`` and ``grads_b``."""
        n = X.shape[0]
        d = self.dacts[-1][:n]
        diff = np.subtract(yhat, y, out=d[:, 0])
        loss = float(np.add.reduce(diff * diff)) / n  # np.mean's bits
        diff *= 2.0
        diff /= n
        for i in range(len(weights) - 1, -1, -1):
            np.matmul((self.acts[i - 1][:n] if i else X).T, d, out=grads_w[i])
            np.add.reduce(d, axis=0, out=grads_b[i])
            if i:
                below = self.dacts[i - 1][:n]
                np.matmul(d, weights[i].T, out=below)
                below *= self.gates[i - 1][:n]
                if masks is not None:
                    below /= 1.0 - rate
                d = below
        return loss


def mlp_forward(model: MlpModel, X: np.ndarray, *, masks=None) -> np.ndarray:
    """Predictions in the model's (standardized) output space.

    Deterministic unless ``masks`` (one bool keep mask per hidden layer,
    shaped like its activations) are given; then inverted dropout is
    applied with them, as in one training step's forward pass.
    """
    X = _inputs(model, X)
    masks = masks if model.dropout_rate > 0.0 else None
    return _Pass(model.weights, X.shape[0], train=False).forward(
        model.weights, model.biases, X, masks, model.dropout_rate)


def mlp_gradients(model: MlpModel, X: np.ndarray, y: np.ndarray, masks=None):
    """Exact gradients of batch-mean MSE w.r.t. every weight and bias.

    Dropout masks, when given, are held fixed so the gradient matches the
    corresponding stochastic forward pass exactly.
    """
    X = _inputs(model, X)
    y = np.asarray(y, float)
    if y.shape != (X.shape[0],):
        raise DriftcastError("y must be a vector matching X rows")
    if X.shape[0] == 0:
        raise DriftcastError("empty batch")
    masks = masks if model.dropout_rate > 0.0 else None
    grads_w = [np.empty(w.shape) for w in model.weights]
    grads_b = [np.empty(b.shape) for b in model.biases]
    passes = _Pass(model.weights, X.shape[0])
    yhat = passes.forward(model.weights, model.biases, X, masks, model.dropout_rate)
    passes.backward(model.weights, X, yhat, y, masks, model.dropout_rate, grads_w, grads_b)
    return grads_w, grads_b


def mse(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(np.mean(d * d))


def _init_params(rng: np.random.Generator, sizes: list[int]) -> np.ndarray:
    """Flat parameter vector: uniform He-style weights, zero biases."""
    flat = np.zeros(sum((fan_in + 1) * fan_out
                        for fan_in, fan_out in zip(sizes[:-1], sizes[1:])))
    for w in _layers(flat, sizes)[0]:
        bound = math.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return flat


def mlp_train(config: MlpConfig, features: FeatureMatrix) -> tuple[MlpModel, TrainReport]:
    """Train on a feature matrix; returns the best-validation-epoch model.

    The chronological tail (``val_fraction`` of rows) is held out for
    early stopping and never shuffled across the boundary. Scalers for
    inputs and target are fitted on the training rows only. Training
    stops once the validation MSE fails to improve by ``IMPROVEMENT_TOL``
    for ``patience`` consecutive epochs, and the weights from the
    best-validation epoch are restored.

    All parameters live in one flat vector, so each Adam step is a few
    in-place passes over it. Dropout masks are drawn for up to
    :data:`MASK_CHUNK` values at a time; ``Generator.random`` fills in C
    order, so the draws are those of one draw per batch and layer.
    """
    rows = features.rows
    if rows < config.min_rows:
        raise DriftcastError(f"need at least {config.min_rows} rows to train, have {rows}")

    n_val = max(1, int(math.floor(rows * config.val_fraction)))
    n_train = rows - n_val

    X_tr = features.X[:n_train]
    input_scaler = Scaler.fit(X_tr)
    target_scaler = Scaler.fit(features.y[:n_train])
    ys = target_scaler.transform(features.y)
    y_tr = ys[:n_train]
    X_va, y_va = input_scaler.transform(features.X[n_train:]), ys[n_train:]

    rng = np.random.default_rng(config.seed)
    d = features.X.shape[1]
    sizes = [d, *config.hidden, 1]
    theta = _init_params(rng, sizes)
    weights, biases = _layers(theta, sizes)
    model = MlpModel(weights, biases, config.dropout_rate, input_scaler, target_scaler)

    grad = np.zeros_like(theta)
    grads_w, grads_b = _layers(grad, sizes)
    m, v = np.zeros_like(theta), np.zeros_like(theta)  # Adam's moments
    t, u = np.empty_like(theta), np.empty_like(theta)  # Adam's temporaries
    step = 0

    batch = min(config.batch_size, n_train)
    passes = _Pass(weights, batch)
    xb_buf, yb_buf = np.empty((batch, d)), np.empty(batch)
    rate = config.dropout_rate
    units = sum(config.hidden)
    dropout = rate > 0.0 and units > 0
    if dropout:
        # whole batches per draw, at least one
        chunk_rows = max(1, MASK_CHUNK // (batch * units)) * batch
        draws = np.empty(chunk_rows * units)
        keep = np.empty(draws.size, bool)

    train_hist: list[float] = []
    val_hist: list[float] = []
    best_val = math.inf          # strict best: weight snapshots / best_epoch
    patience_best = math.inf     # tolerance-gated best: drives the patience clock
    best_epoch = 0
    wait = 0
    best = theta.copy()

    # overflow in a diverging run is reported through NumericError, not
    # as a stream of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(n_train)
            batch_losses = []
            for start in range(0, n_train, batch):
                idx = order[start:start + batch]
                n = idx.size
                # a permutation never needs clipping; "clip" spares take's
                # out= buffering of "raise". The raw rows are standardized
                # in the buffer with Scaler.transform's two operations.
                xb = X_tr.take(idx, axis=0, out=xb_buf[:n], mode="clip")
                xb -= input_scaler.means
                xb /= input_scaler.stds
                yb = y_tr.take(idx, out=yb_buf[:n], mode="clip")
                masks = None
                if dropout:
                    at = start % chunk_rows
                    if at == 0:
                        drawn = min(chunk_rows, n_train - start) * units
                        rng.random(out=draws[:drawn])
                        np.greater_equal(draws[:drawn], rate, out=keep[:drawn])
                    masks = _views(keep[at * units:], [(n, w) for w in config.hidden])
                yhat = passes.forward(weights, biases, xb, masks, rate)
                batch_losses.append(passes.backward(weights, xb, yhat, yb, masks, rate,
                                                    grads_w, grads_b))
                step += 1
                corr1 = 1.0 - ADAM_BETA1 ** step
                corr2 = 1.0 - ADAM_BETA2 ** step
                # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2, with each
                # operation in the order the per-array expressions take
                m *= ADAM_BETA1
                np.multiply(grad, 1 - ADAM_BETA1, out=t)
                m += t
                v *= ADAM_BETA2
                np.multiply(grad, grad, out=t)
                t *= 1 - ADAM_BETA2
                v += t
                # theta -= lr * (m/corr1) / (sqrt(v/corr2) + eps)
                np.divide(m, corr1, out=t)
                t *= config.learning_rate
                np.divide(v, corr2, out=u)
                np.sqrt(u, out=u)
                u += ADAM_EPS
                t /= u
                theta -= t

            train_loss = float(np.mean(batch_losses))
            val_loss = mse(mlp_forward(model, X_va), y_va)
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                raise NumericError(f"training diverged at epoch {epoch}")
            train_hist.append(train_loss)
            val_hist.append(val_loss)

            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                np.copyto(best, theta)
            if val_loss < patience_best - IMPROVEMENT_TOL:
                patience_best = val_loss
                wait = 0
            else:
                wait += 1
                if wait >= config.patience:
                    break

    model.weights, model.biases = _layers(best, sizes)
    report = TrainReport(train_hist, val_hist, stopped_epoch=len(val_hist),
                         best_epoch=best_epoch)
    return model, report


def mlp_predict(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Eval-mode predictions for raw features, in original target units.

    ``X`` is standardized with the model's own input scaler first, as
    :meth:`LassoModel.predict` does with its own, and runs forward
    :data:`BLOCK_ROWS` rows at a time through one set of buffers; the bits
    are those of one forward pass over all of ``X``.
    """
    X = _inputs(model, X)
    # one row would go through a matrix-vector product, which rounds
    # otherwise, so a last row left over joins the block before it; each
    # block's output is copied out of the buffers the next block reuses
    blocks = np.split(X, range(BLOCK_ROWS, X.shape[0] - 1, BLOCK_ROWS))
    passes = _Pass(model.weights, max(len(block) for block in blocks), train=False)
    out = np.concatenate([
        passes.forward(model.weights, model.biases, model.input_scaler.transform(block),
                       None, model.dropout_rate).copy() for block in blocks])
    return model.target_scaler.inverse(out)
