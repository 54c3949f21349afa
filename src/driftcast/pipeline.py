"""The two forecasting strategies, end to end, on one shared test block.

``run_baseline`` trains once on the whole training block. ``run_retrain``
detects distributional changepoints inside the training block (never the
test block), discards every feature row before the last one, and refits
the same model family from scratch — fresh initialization, fresh scalers —
on the remainder. Both strategies are evaluated on byte-identical test
features, so any score difference is attributable to the training-data
selection alone.

Feature rows for the test block may consume actual past observations
across the split boundary (walk-forward, one step ahead with known
history); predictions are never fed back recursively.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import changepoint as cp
from .errors import InvalidConfig, MismatchedTestBlocks, PostDriftTooShort, TooFewRows
from .features import FeatureMatrix, FeatureSpec, build_features
from .frame import STD_FLOOR, SplitSpec, TimeSeriesFrame
from .lasso import LassoConfig, lasso_cv
from .metrics import EvalReport, evaluate
from .mlp import MlpConfig, TrainReport, mlp_predict, mlp_train
from .serialize import sha256_arrays

log = logging.getLogger(__name__)

BASELINE = "baseline"
DRIFT_RETRAIN = "retrain"
MLP = "mlp"
LASSO = "lasso"

SCALE_STANDARDIZED = "standardized"
SCALE_ORIGINAL = "original"


def data_feature_columns(names) -> tuple[str, ...]:
    """The feature columns drift detection watches by default: the lags.

    Lag columns are shifted copies of the observed series, so their
    first differences are the raw innovations and the variance-tracking
    penalty is calibrated for them. The excluded columns misbehave under
    a mean-shift cost: calendar encodings are deterministic functions of
    the clock (their "shifts" are phase, not drift), and rolling stats
    are smoothed aggregates whose tiny first differences make the
    penalty far too cheap for their actual excursions.
    """
    return tuple(n for n in names if "*" not in n and n.startswith("lag_"))


@dataclass(frozen=True)
class DetectionConfig:
    """What the changepoint detector sees.

    ``columns=None`` means the data-derived feature columns; set
    ``on_target=True`` to detect on the raw target series instead (the
    drift-visualization convention). ``beta=None`` derives the penalty
    from first-difference variance, summed across detection columns.
    """

    columns: tuple[str, ...] | None = None
    on_target: bool = False
    cost_model: cp.CostModel = field(default_factory=cp.CostModel)
    beta: float | None = None
    min_size: int = 2

    def to_dict(self) -> dict:
        return {
            "columns": list(self.columns) if self.columns else None,
            "on_target": self.on_target,
            "cost_model": self.cost_model.kind,
            "beta": self.beta,
            "min_size": self.min_size,
        }


@dataclass(frozen=True)
class StrategyConfig:
    strategy: str = BASELINE
    model: str = MLP
    mlp: MlpConfig = field(default_factory=MlpConfig)
    lasso: LassoConfig = field(default_factory=LassoConfig)
    feature_spec: FeatureSpec = field(default_factory=FeatureSpec)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    seed: int = 0
    metric_scale: str = SCALE_STANDARDIZED
    dataset_id: str = ""

    def __post_init__(self):
        if self.strategy not in (BASELINE, DRIFT_RETRAIN):
            raise InvalidConfig(f"unknown strategy {self.strategy!r}")
        if self.model not in (MLP, LASSO):
            raise InvalidConfig(f"unknown model family {self.model!r}")
        if self.metric_scale not in (SCALE_STANDARDIZED, SCALE_ORIGINAL):
            raise InvalidConfig(f"unknown metric scale {self.metric_scale!r}")

    def to_dict(self) -> dict:
        d = {
            "strategy": self.strategy,
            "model": self.model,
            "feature_spec": self.feature_spec.to_dict(),
            "split": {"train_fraction": self.split.train_fraction},
            "seed": self.seed,
            "metric_scale": self.metric_scale,
            "dataset_id": self.dataset_id,
        }
        if self.model == MLP:
            d["mlp"] = self.mlp.to_dict()
        else:
            d["lasso"] = self.lasso.to_dict()
        if self.strategy == DRIFT_RETRAIN:
            d["detection"] = self.detection.to_dict()
        return d


@dataclass
class RunReport:
    """Serializable outcome of one strategy run."""

    eval: EvalReport
    segmentation: cp.Segmentation | None
    training_rows_used: int
    config: dict
    seed: int
    dataset_sha256: str
    test_sha256: str
    test_target_sha256: str = ""
    fallback_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "eval": self.eval.to_dict(),
            "segmentation": self.segmentation.to_dict() if self.segmentation else None,
            "training_rows_used": self.training_rows_used,
            "config": self.config,
            "seed": self.seed,
            "dataset_sha256": self.dataset_sha256,
            "test_sha256": self.test_sha256,
            "test_target_sha256": self.test_target_sha256,
            "fallback_reason": self.fallback_reason,
        }

    @staticmethod
    def from_dict(d: dict) -> "RunReport":
        seg = d.get("segmentation")
        segmentation = None
        if seg is not None:
            segmentation = cp.Segmentation(
                tuple(int(t) for t in seg["changepoints"]), int(seg["n"]),
                float(seg["total_cost"]), float(seg.get("beta", 0.0)),
                seg.get("cost_model", cp.L2_MEAN))
        return RunReport(
            eval=EvalReport.from_dict(d["eval"]),
            segmentation=segmentation,
            training_rows_used=int(d["training_rows_used"]),
            config=dict(d.get("config", {})),
            seed=int(d.get("seed", 0)),
            dataset_sha256=d.get("dataset_sha256", ""),
            test_sha256=d.get("test_sha256", ""),
            test_target_sha256=d.get("test_target_sha256", ""),
            fallback_reason=d.get("fallback_reason"),
        )


@dataclass
class RunResult:
    """In-memory run outcome: the report plus everything a caller might
    want to inspect or plot (kept out of the serialized artifact)."""

    report: RunReport
    model: object
    predictions: np.ndarray          # original target units, test block
    test_y: np.ndarray               # original target units
    test_timestamps: np.ndarray
    train_report: TrainReport | None = None
    cv_results: list | None = None
    train_rows_total: int = 0


@dataclass
class _Prepared:
    features: FeatureMatrix
    train: FeatureMatrix
    test: FeatureMatrix
    boundary: int
    eval_mean: float
    eval_std: float
    test_sha: str
    test_target_sha: str
    dataset_sha: str


def _prepare(frame: TimeSeriesFrame, target: str, config: StrategyConfig) -> _Prepared:
    features = build_features(frame, target, config.feature_spec)
    boundary = config.split.boundary(frame.n)
    train_rows = boundary - features.origin_index
    test_rows = features.rows - train_rows
    if train_rows < 10:
        raise TooFewRows(
            f"only {train_rows} training feature rows after warmup "
            f"{features.origin_index} (boundary {boundary})")
    if test_rows < 2:
        raise TooFewRows(f"only {test_rows} test feature rows")
    train = features.slice(0, train_rows)
    test = features.slice(train_rows, features.rows)
    # Shared evaluation scale: one affine map fit on the full training-block
    # target, identical across strategies so scores stay comparable.
    eval_mean = float(train.y.mean())
    eval_std = max(float(train.y.std()), STD_FLOOR)
    test_sha = sha256_arrays(test.X, test.y)
    test_target_sha = sha256_arrays(test.timestamps, test.y)
    dataset_sha = sha256_arrays(frame.timestamps, *[frame.columns[c] for c in frame.columns])
    return _Prepared(features, train, test, boundary, eval_mean, eval_std,
                     test_sha, test_target_sha, dataset_sha)


def _min_rows(config: StrategyConfig) -> int:
    if config.model == MLP:
        return 10
    return config.lasso.cv_folds + 1


def _fit_and_eval(config: StrategyConfig, prep: _Prepared, train_slice: FeatureMatrix,
                  strategy: str):
    train_report = None
    cv_results = None
    if config.model == MLP:
        mlp_config = replace(config.mlp, seed=config.seed)
        model, train_report = mlp_train(mlp_config, train_slice)
        x_std = model.input_scaler.transform(prep.test.X)
        preds = mlp_predict(model, x_std)
    else:
        model = lasso_cv(train_slice, config.lasso)
        cv_results = model.cv_results
        preds = model.predict(prep.test.X)

    if config.metric_scale == SCALE_STANDARDIZED:
        y_eval = (prep.test.y - prep.eval_mean) / prep.eval_std
        p_eval = (preds - prep.eval_mean) / prep.eval_std
    else:
        y_eval, p_eval = prep.test.y, preds
    report = evaluate(
        y_eval, p_eval, scale=config.metric_scale,
        dataset=config.dataset_id, model=config.model,
        strategy=strategy, seed=config.seed)
    return model, preds, report, train_report, cv_results


def _package(config, prep, strategy, fitted, segmentation, rows_used, fallback_reason):
    model, preds, eval_report, train_report, cv_results = fitted
    report = RunReport(
        eval=eval_report,
        segmentation=segmentation,
        training_rows_used=rows_used,
        config=replace(config, strategy=strategy).to_dict(),
        seed=config.seed,
        dataset_sha256=prep.dataset_sha,
        test_sha256=prep.test_sha,
        test_target_sha256=prep.test_target_sha,
        fallback_reason=fallback_reason,
    )
    return RunResult(report, model, preds, prep.test.y.copy(),
                     prep.test.timestamps.copy(), train_report, cv_results,
                     train_rows_total=prep.train.rows)


def run_baseline(frame: TimeSeriesFrame, target: str, config: StrategyConfig) -> RunResult:
    """Static strategy: one model over the full training block, no detection."""
    prep = _prepare(frame, target, config)
    fitted = _fit_and_eval(config, prep, prep.train, BASELINE)
    return _package(config, prep, BASELINE, fitted, None, prep.train.rows, None)


def detect_training_drift(prep: _Prepared, config: StrategyConfig) -> cp.Segmentation:
    """Changepoints over the training block only (feature-row indexing).

    Default mode watches the standardized data-derived feature columns
    jointly; ``on_target`` mode watches the raw target values aligned with
    the same rows instead.
    """
    det = config.detection
    train = prep.train
    if det.on_target:
        series = train.y
        penalty = cp.PenaltyConfig(det.beta) if det.beta is not None else \
            cp.default_penalty(series)
        return cp.pelt_detect(series, det.cost_model, penalty, det.min_size)
    names = det.columns or data_feature_columns(train.feature_names)
    idx = [train.feature_names.index(n) for n in names]
    X = train.X[:, idx]
    mean = X.mean(axis=0)
    std = np.maximum(X.std(axis=0), STD_FLOOR)
    Xs = (X - mean) / std
    penalty = cp.PenaltyConfig(det.beta) if det.beta is not None else \
        cp.default_penalty_multi(Xs)
    return cp.pelt_detect(Xs, det.cost_model, penalty, det.min_size)


def run_retrain(frame: TimeSeriesFrame, target: str, config: StrategyConfig) -> RunResult:
    """Drift-aware strategy: drop training rows before the last changepoint.

    Falls back to the baseline training set (and flags the report) when no
    changepoint is found or the post-drift segment is below the model's
    minimum row count; with the same seed the fallback reproduces the
    baseline scores exactly.
    """
    prep = _prepare(frame, target, config)
    segmentation = detect_training_drift(prep, config)
    tau = cp.last_changepoint(segmentation)

    fallback_reason = None
    if tau is None:
        fallback_reason = "no_changepoints"
        log.info("no changepoints in training block; falling back to baseline")
    elif prep.train.rows - tau < _min_rows(config):
        fallback_reason = "post_drift_too_short"
        warnings.warn(
            f"post-drift segment has {prep.train.rows - tau} rows, below the "
            f"minimum of {_min_rows(config)}; falling back to baseline",
            PostDriftTooShort)

    if fallback_reason is None:
        train_slice = prep.train.slice(tau, prep.train.rows)
        rows_used = prep.train.rows - tau
    else:
        train_slice = prep.train
        rows_used = prep.train.rows

    fitted = _fit_and_eval(config, prep, train_slice, DRIFT_RETRAIN)
    return _package(config, prep, DRIFT_RETRAIN, fitted, segmentation,
                    rows_used, fallback_reason)


def run(frame: TimeSeriesFrame, target: str, config: StrategyConfig) -> RunResult:
    if config.strategy == BASELINE:
        return run_baseline(frame, target, config)
    return run_retrain(frame, target, config)


@dataclass
class ComparisonTable:
    """Per-(model, strategy) metrics with deltas against the matching baseline."""

    rows: list[dict]

    def to_csv(self, path) -> None:
        import csv as _csv

        headers = ["model", "strategy", "mae", "rmse", "r2",
                   "mae_reduction_rel", "rmse_reduction_rel", "r2_gain",
                   "training_rows_used", "seed"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(headers)
            for row in self.rows:
                out = []
                for h in headers:
                    v = row.get(h)
                    if v is None:
                        out.append("")
                    elif isinstance(v, float):
                        out.append(format(v, ".17g"))
                    else:
                        out.append(v)
                writer.writerow(out)

    def panels(self):
        label = lambda r: f"{r['model']}-{r['strategy']}"
        return [
            ("MAE", [(label(r), r["mae"]) for r in self.rows]),
            ("RMSE", [(label(r), r["rmse"]) for r in self.rows]),
            ("R2", [(label(r), r["r2"]) for r in self.rows]),
        ]


def compare(reports: list[RunReport]) -> ComparisonTable:
    """Tabulate runs that share a test block; deltas vs. the same-family baseline.

    Relative reductions are (baseline - other) / baseline, so a retrain
    that is worse than its baseline shows up as a negative reduction.
    """
    if not reports:
        raise ValueError("nothing to compare")
    hashes = {r.test_target_sha256 or r.test_sha256 for r in reports}
    if len(hashes) > 1:
        raise MismatchedTestBlocks(
            f"reports cover {len(hashes)} different test blocks")

    baselines = {}
    for r in reports:
        key = r.eval.provenance.get("model")
        if r.eval.provenance.get("strategy") == BASELINE:
            baselines[key] = r

    rows = []
    order = {BASELINE: 0, DRIFT_RETRAIN: 1}
    for r in sorted(reports, key=lambda r: (r.eval.provenance.get("model", ""),
                                            order.get(r.eval.provenance.get("strategy"), 2))):
        model = r.eval.provenance.get("model", "?")
        strategy = r.eval.provenance.get("strategy", "?")
        row = {
            "model": model,
            "strategy": strategy,
            "mae": r.eval.mae,
            "rmse": r.eval.rmse,
            "r2": r.eval.r2,
            "mae_reduction_rel": None,
            "rmse_reduction_rel": None,
            "r2_gain": None,
            "training_rows_used": r.training_rows_used,
            "seed": r.seed,
        }
        base = baselines.get(model)
        if base is not None and strategy != BASELINE:
            if base.eval.mae > 0:
                row["mae_reduction_rel"] = (base.eval.mae - r.eval.mae) / base.eval.mae
            if base.eval.rmse > 0:
                row["rmse_reduction_rel"] = (base.eval.rmse - r.eval.rmse) / base.eval.rmse
            row["r2_gain"] = r.eval.r2 - base.eval.r2
        rows.append(row)
    return ComparisonTable(rows)
