"""Train both model families on one feature matrix and score them.

The network is trained with Adam and early stopping on a chronological
validation tail; the lasso picks its regularization strength by
expanding-window cross-validation. Both are plain numpy and fully seeded.

Run:  python demos/demo_models.py
"""

import numpy as np

from driftcast.features import build_features
from driftcast.lasso import LassoConfig, lasso_cv
from driftcast.metrics import evaluate
from driftcast.mlp import MlpConfig, mlp_gradients, mlp_predict, mlp_train
from driftcast.synth import SynthConfig, generate, TARGET_COLUMN

frame = generate(SynthConfig(start="2020-01-01T00:00", end="2020-06-30T23:00",
                             events=(), seed=21))
fm = build_features(frame, TARGET_COLUMN)
split = int(fm.rows * 0.8)
train, test = fm.slice(0, split), fm.slice(split, fm.rows)
print(f"{train.rows} training rows, {test.rows} test rows, "
      f"{len(fm.feature_names)} features")

# --- the network ---------------------------------------------------------
config = MlpConfig(hidden=(64, 64), dropout_rate=0.2, seed=1, max_epochs=100)
model, report = mlp_train(config, train)
print(f"\nmlp stopped at epoch {report.stopped_epoch} "
      f"(best {report.best_epoch}, val mse {report.val_loss[report.best_epoch - 1]:.4f})")
preds = mlp_predict(model, test.X)
print("mlp  ", evaluate(test.y, preds, scale="original",
                        model="mlp", strategy="demo"))

# the backprop gradients agree with central finite differences
rng = np.random.default_rng(0)
probe = mlp_train(MlpConfig(hidden=(4,), dropout_rate=0.0, max_epochs=1, seed=0),
                  train.slice(0, 64))[0]
X8, y8 = train.X[:8], train.y[:8]
Xs8 = probe.input_scaler.transform(X8)
gw, _ = mlp_gradients(probe, Xs8, y8)
eps = 1e-5
w = probe.weights[0]
keep = w[0, 0]


def loss_at(v):
    w[0, 0] = v
    from driftcast.mlp import mlp_forward
    out = mlp_forward(probe, Xs8)
    return float(np.mean((out - y8) ** 2))


fd = (loss_at(keep + eps) - loss_at(keep - eps)) / (2 * eps)
w[0, 0] = keep
print(f"gradient check on one weight: analytic {gw[0][0, 0]:.6e}, "
      f"finite-diff {fd:.6e}")

# --- the lasso -----------------------------------------------------------
lasso = lasso_cv(train, LassoConfig())
print(f"\nlasso chose alpha {lasso.chosen_alpha} "
      f"with {np.count_nonzero(lasso.coefficients)}/{lasso.coefficients.size} nonzero weights")
print("lasso", evaluate(test.y, lasso.predict(test.X), scale="original",
                        model="lasso", strategy="demo"))
top = sorted(zip(lasso.feature_names, lasso.coefficients),
             key=lambda kv: -abs(kv[1]))[:4]
print("largest standardized coefficients:",
      ", ".join(f"{k}={v:+.3f}" for k, v in top))
