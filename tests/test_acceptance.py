"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines as
they print. Every tolerance is pinned here; nothing is deferred to later
calibration. Criterion 8 reports both model families separately — see the
repository README for the measured behavior of the linear family.
"""

import math
import time
import warnings

import numpy as np
import pytest

from driftcast import changepoint as cp
from driftcast import metrics, pipeline, synth
from driftcast.cli import main as cli_main
from driftcast.features import FeatureSpec, build_features
from driftcast.frame import TimeSeriesFrame
from driftcast.lasso import kkt_violation, lasso_fit, soft_threshold
from driftcast.mlp import MlpConfig, MlpModel, mlp_forward, mlp_gradients
from driftcast.frame import Scaler

TARGET = synth.TARGET_COLUMN

pytestmark = pytest.mark.acceptance


def check(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:>2}: {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# 1. PELT exactness against the unpruned oracle
# --------------------------------------------------------------------------

def random_mixture_series(rng):
    n = int(rng.integers(8, 201))
    nseg = int(rng.integers(1, 5))
    cuts = (np.sort(rng.choice(np.arange(1, n), size=nseg - 1, replace=False))
            if nseg > 1 else [])
    y = np.empty(n)
    bounds = [0] + list(cuts) + [n]
    for i in range(nseg):
        y[bounds[i]:bounds[i + 1]] = rng.normal(0, 3)
    return y + rng.normal(0, rng.uniform(0.05, 1.5), n)


def test_c1_pelt_exactness():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    mismatches = 0
    worst_gap = 0.0
    for trial in range(500):
        y = random_mixture_series(rng)
        cost = cp.L2_MEAN if trial % 2 == 0 else cp.GAUSSIAN_NLL
        beta = float(rng.uniform(0.05, 30.0))
        fast = cp.pelt_detect(y, cost, beta)
        slow = cp.op_detect(y, cost, beta)
        gap = abs(fast.total_cost - slow.total_cost)
        worst_gap = max(worst_gap, gap)
        if fast.changepoints != slow.changepoints or gap > 1e-9:
            mismatches += 1
    elapsed = time.time() - t0
    check(1, mismatches == 0 and elapsed < 10.0,
          f"500 series: {mismatches} mismatches, worst cost gap {worst_gap:.2e}, "
          f"{elapsed:.1f}s (< 10s)")


# --------------------------------------------------------------------------
# 2. Sub-quadratic scaling on piecewise-constant input
# --------------------------------------------------------------------------

def piecewise_constant(n, seglen, rng):
    y = np.zeros(n)
    level = 0.0
    for s in range(0, n, seglen):
        level += rng.choice([-5.0, 5.0])
        y[s:s + seglen] = level
    return y


def test_c2_pelt_scaling():
    rng = np.random.default_rng(7)
    medians = {}
    for n in (10_000, 40_000):
        y = piecewise_constant(n, 250, rng)
        beta = cp.default_penalty(y)
        times = []
        for _ in range(5):
            t0 = time.time()
            cp.pelt_detect(y, cp.L2_MEAN, beta)
            times.append(time.time() - t0)
        medians[n] = sorted(times)[2]
    ratio = medians[40_000] / medians[10_000]
    check(2, ratio < 8.0,
          f"median runtime 10k={medians[10_000]:.2f}s 40k={medians[40_000]:.2f}s, "
          f"ratio {ratio:.2f} (< 8)")


# --------------------------------------------------------------------------
# 3. Detection accuracy against generated ground truth
# --------------------------------------------------------------------------

def test_c3_detection_accuracy():
    hits = 0
    for seed in range(20):
        config = synth.SynthConfig(seed=seed)
        frame = synth.generate(config)
        truth = [e["at_index"] for e in synth.ground_truth(config)["events"]
                 if e["kind"] == synth.SUDDEN][0]
        y = frame.column(TARGET)
        seg = cp.pelt_detect(y, beta=cp.default_penalty(y))
        if seg.m and min(abs(c - truth) for c in seg.changepoints) <= 24:
            hits += 1
    check(3, hits >= 19, f"sudden drift located within ±24h in {hits}/20 seeds (≥ 19)")


# --------------------------------------------------------------------------
# 4. MLP gradients against central finite differences
# --------------------------------------------------------------------------

def test_c4_mlp_gradient_check():
    t0 = time.time()
    worst = 0.0
    eps = 1e-5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        hidden = [int(rng.integers(3, 8))]
        if seed % 2 == 0:
            hidden.append(int(rng.integers(3, 8)))
        sizes = [d] + hidden + [1]
        weights = [rng.normal(0, 0.7, (a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
        biases = [rng.normal(0, 0.3, b) for b in sizes[1:]]
        ident = Scaler(np.zeros(d), np.ones(d))
        model = MlpModel(weights, biases, 0.0, ident,
                         Scaler(np.zeros(1), np.ones(1)))
        # central differences are only valid away from the ReLU kink:
        # resample inputs until every pre-activation clears it comfortably
        for _ in range(100):
            X = rng.normal(0, 1, (8, d))
            a = X
            closest = math.inf
            for W, b in zip(weights[:-1], biases[:-1]):
                z = a @ W + b
                closest = min(closest, float(np.min(np.abs(z))))
                a = np.maximum(z, 0.0)
            if closest > 1e-3:
                break
        y = rng.normal(0, 1, 8)
        gw, gb = mlp_gradients(model, X, y)

        def loss():
            out = mlp_forward(model, X)
            return float(np.mean((out - y) ** 2))

        for params, grads in ((model.weights, gw), (model.biases, gb)):
            for P, G in zip(params, grads):
                it = np.nditer(P, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    keep = P[ix]
                    P[ix] = keep + eps
                    up = loss()
                    P[ix] = keep - eps
                    down = loss()
                    P[ix] = keep
                    fd = (up - down) / (2 * eps)
                    denom = max(abs(fd), abs(G[ix]), 1e-8)
                    worst = max(worst, abs(fd - G[ix]) / denom)
    elapsed = time.time() - t0
    check(4, worst < 1e-5 and elapsed < 5.0,
          f"20 networks: max relative error {worst:.2e} (< 1e-5), {elapsed:.1f}s (< 5s)")


# --------------------------------------------------------------------------
# 5. Lasso coordinate descent vs the orthonormal closed form
# --------------------------------------------------------------------------

def test_c5_lasso_closed_form():
    rng = np.random.default_rng(3)
    grid = (0.001, 0.01, 0.1, 1.0)
    worst = 0.0
    for _ in range(25):
        n = 160
        d = int(rng.integers(2, 21))
        A = rng.normal(0, 1, (n, d))
        A -= A.mean(axis=0)
        Q, _ = np.linalg.qr(A)
        X = math.sqrt(n) * Q[:, :d]
        y = X @ (rng.normal(0, 1, d) * 0.5) + rng.normal(0, 0.3, n)
        yc = y - y.mean()
        for alpha in grid:
            model = lasso_fit(X, y, alpha)
            expect = np.array(
                [soft_threshold(float(X[:, j] @ yc / n), alpha) for j in range(d)])
            worst = max(worst, float(np.max(np.abs(model.coefficients - expect))))
    check(5, worst < 1e-8,
          f"orthonormal designs, all grid alphas: max |coef - closed form| "
          f"{worst:.2e} (< 1e-8)")


# --------------------------------------------------------------------------
# 6. KKT residuals at convergence
# --------------------------------------------------------------------------

def test_c6_lasso_kkt():
    rng = np.random.default_rng(4)
    grid = (0.001, 0.01, 0.1, 1.0)
    worst = 0.0
    fits = 0
    for trial in range(12):
        n = int(rng.integers(60, 400))
        d = int(rng.integers(3, 25))
        X = rng.normal(0, 1, (n, d))
        if trial % 2 == 0 and d >= 6:  # correlated block
            half = d // 2
            X[:, half:half * 2] = X[:, :half] * 0.9 + rng.normal(0, 0.2, (n, half))
        y = X @ rng.normal(0, 1, d) + rng.normal(0, 0.5, n)
        for alpha in grid:
            model = lasso_fit(X, y, alpha)
            if not model.converged:
                continue
            Xs = (X - model.x_mean) / model.x_std
            viol = kkt_violation(Xs, y - model.intercept, model.coefficients, alpha)
            worst = max(worst, viol)
            fits += 1

    # also the pipeline's own design: polynomial-expanded lag/rolling features
    frame = synth.generate(synth.SynthConfig(
        start="2020-01-01T00:00", end="2020-06-30T23:00", seed=8,
        events=(synth.DriftEvent(synth.SUDDEN, "2020-05-01T00:00", jump=2.0),)))
    fm = build_features(frame, TARGET, FeatureSpec(polynomial_degree=2))
    for alpha in grid:
        model = lasso_fit(fm.X, fm.y, alpha)
        if not model.converged:
            continue
        Xs = (fm.X - model.x_mean) / model.x_std
        worst = max(worst, kkt_violation(Xs, fm.y - model.intercept,
                                         model.coefficients, alpha))
        fits += 1
    check(6, worst <= 1e-6,
          f"{fits} converged fits: max KKT residual {worst:.2e} (≤ 1e-6)")


# --------------------------------------------------------------------------
# 7. Metric oracles
# --------------------------------------------------------------------------

def test_c7_metric_oracles():
    y = np.array([1.0, 2.0, 3.0])
    y_hat = np.array([1.0, 2.0, 4.0])
    fixed_ok = (abs(metrics.mae(y, y_hat) - 1.0 / 3.0) < 1e-12
                and abs(metrics.rmse(y, y_hat) - math.sqrt(1.0 / 3.0)) < 1e-12
                and abs(metrics.r2(y, y_hat) - 0.5) < 1e-12)

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 80))
        a = rng.normal(rng.uniform(-3, 3), rng.uniform(0.1, 4), n)
        if np.ptp(a) == 0:
            a[0] += 1.0
        b = a + rng.normal(0, rng.uniform(0.01, 2), n)
        sae = sum(abs(x - z) for x, z in zip(a, b))
        sse = sum((x - z) ** 2 for x, z in zip(a, b))
        abar = sum(a) / n
        sst = sum((x - abar) ** 2 for x in a)
        worst = max(worst,
                    abs(metrics.mae(a, b) - sae / n),
                    abs(metrics.rmse(a, b) - math.sqrt(sse / n)),
                    abs(metrics.r2(a, b) - (1 - sse / sst)))
    check(7, fixed_ok and worst < 1e-10,
          f"fixed triple exact; 1000 randomized cases max deviation {worst:.2e} (< 1e-10)")


# --------------------------------------------------------------------------
# 8. Directional end-to-end reproduction on the default synthetic dataset
# --------------------------------------------------------------------------

def test_c8_directional_reproduction():
    t0 = time.time()
    tallies = {pipeline.MLP: 0, pipeline.LASSO: 0}
    details = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(5):
            frame = synth.generate(synth.SynthConfig(seed=100 + seed))
            for family in (pipeline.MLP, pipeline.LASSO):
                config = pipeline.StrategyConfig(
                    model=family, seed=seed, dataset_id="synth-default")
                base = pipeline.run_baseline(frame, TARGET, config)
                retr = pipeline.run_retrain(frame, TARGET, config)
                ratio = retr.report.eval.mae / base.report.eval.mae
                r2_up = retr.report.eval.r2 > base.report.eval.r2
                if ratio <= 0.85 and r2_up:
                    tallies[family] += 1
                details.append(f"{family}[{seed}] ratio {ratio:.3f} r2_up {r2_up}")
    elapsed = time.time() - t0
    print("    " + "; ".join(details))
    detail = (f"MLP {tallies[pipeline.MLP]}/5 seeds, "
              f"Lasso {tallies[pipeline.LASSO]}/5 seeds meet "
              f"MAE ≤ 0.85×baseline and R² gain (need ≥ 4/5 each); "
              f"{elapsed / 60:.1f} min (< 15)")
    ok = (tallies[pipeline.MLP] >= 4 and tallies[pipeline.LASSO] >= 4
          and elapsed < 15 * 60)
    check(8, ok, detail)


# --------------------------------------------------------------------------
# 9. Fallback identity on a stationary series
# --------------------------------------------------------------------------

def test_c9_fallback_identity():
    config = synth.SynthConfig(start="2020-01-01T00:00", end="2020-12-31T23:00",
                               events=(), seed=11)
    frame = synth.generate(config)
    mismatches = []
    for family in (pipeline.MLP, pipeline.LASSO):
        cfg = pipeline.StrategyConfig(model=family, seed=11, dataset_id="flat")
        base = pipeline.run_baseline(frame, TARGET, cfg)
        retr = pipeline.run_retrain(frame, TARGET, cfg)
        same = (retr.report.fallback_reason == "no_changepoints"
                and base.report.eval.mae == retr.report.eval.mae
                and base.report.eval.rmse == retr.report.eval.rmse
                and base.report.eval.r2 == retr.report.eval.r2
                and np.array_equal(base.predictions, retr.predictions))
        if not same:
            mismatches.append(family)
    check(9, not mismatches,
          "no events -> retrain falls back and reproduces baseline metrics "
          f"exactly for both families (mismatches: {mismatches or 'none'})")


# --------------------------------------------------------------------------
# 10. Leakage audit
# --------------------------------------------------------------------------

def test_c10_leakage_audit():
    config = synth.SynthConfig(
        start="2020-01-01T00:00", end="2020-06-30T23:00",
        events=(synth.DriftEvent(synth.SUDDEN, "2020-05-01T00:00", jump=2.0),),
        seed=6)
    frame = synth.generate(config)
    cfg = pipeline.StrategyConfig(
        model=pipeline.MLP, mlp=MlpConfig(hidden=(16,), max_epochs=40, seed=6),
        seed=6, dataset_id="audit")
    boundary = cfg.split.boundary(frame.n)
    poisoned_vals = frame.column(TARGET).copy()
    poisoned_vals[boundary:] += 1000.0
    poisoned = TimeSeriesFrame(frame.timestamps, {TARGET: poisoned_vals})

    clean_run = pipeline.run_retrain(frame, TARGET, cfg)
    poisoned_run = pipeline.run_retrain(poisoned, TARGET, cfg)
    detection_clean = (clean_run.report.segmentation.changepoints
                       == poisoned_run.report.segmentation.changepoints)
    scalers_clean = (np.array_equal(clean_run.model.input_scaler.means,
                                    poisoned_run.model.input_scaler.means)
                     and np.array_equal(clean_run.model.target_scaler.means,
                                        poisoned_run.model.target_scaler.means))
    weights_clean = all(np.array_equal(a, b) for a, b in
                        zip(clean_run.model.weights, poisoned_run.model.weights))
    poison_took = clean_run.report.test_sha256 != poisoned_run.report.test_sha256

    base = pipeline.run_baseline(frame, TARGET, cfg)
    hashes_match = base.report.test_sha256 == clean_run.report.test_sha256

    ok = detection_clean and scalers_clean and weights_clean and poison_took and hashes_match
    check(10, ok,
          "perturbing test-block rows leaves detection, scalers and weights "
          f"bit-identical (detection={detection_clean}, scalers={scalers_clean}, "
          f"weights={weights_clean}); test hashes identical across strategies "
          f"({hashes_match})")


# --------------------------------------------------------------------------
# 11. Campaign determinism down to bytes
# --------------------------------------------------------------------------

def test_c11_campaign_determinism(tmp_path):
    config_json = tmp_path / "config.json"
    config_json.write_text(
        '{"start": "2020-01-01T00:00", "end": "2020-06-30T23:00", '
        '"events": [{"kind": "sudden", "at": "2020-05-01T00:00", "jump": 2.0}], '
        '"seed": 1}', encoding="utf-8")

    def campaign(root):
        root.mkdir()
        data = root / "data.csv"
        assert cli_main(["synth", "--config", str(config_json),
                         "--out", str(data)]) == 0
        reports = []
        for model in ("mlp", "lasso"):
            for strategy in ("baseline", "retrain"):
                out = root / f"{model}_{strategy}.json"
                assert cli_main(["run", "--data", str(data), "--model", model,
                                 "--strategy", strategy, "--seed", "1",
                                 "--max-epochs", "40", "--out", str(out)]) == 0
                reports.append(out)
        assert cli_main(["compare", "--reports", str(root / "*_*.json"),
                         "--out", str(root / "table.csv"),
                         "--plot", str(root / "table.svg")]) == 0
        return sorted(p for p in root.iterdir() if p.is_file())

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first = campaign(tmp_path / "one")
        second = campaign(tmp_path / "two")
    names_match = [p.name for p in first] == [p.name for p in second]
    diffs = [a.name for a, b in zip(first, second) if a.read_bytes() != b.read_bytes()]
    check(11, names_match and not diffs,
          f"two campaign executions: {len(first)} artifacts, "
          f"byte-identical (diffs: {diffs or 'none'})")
