"""The two forecasting strategies, end to end, on one shared test block.

``run`` reads the strategy from its config. A baseline trains once on the
whole training block; a retrain detects changepoints inside the training
block (never the test block), drops every feature row whose inputs reach
back before the last one, and refits the same model family from scratch
(fresh initialization, fresh scalers) on the rest. Both strategies are
scored on byte-identical test features, so any score difference comes
from the training-data selection alone.

Feature rows for the test block may consume actual past observations
across the split boundary (walk-forward, one step ahead with known
history); predictions are never fed back recursively.
"""

from __future__ import annotations

import logging
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import changepoint as cp
from .errors import DriftcastError, PostDriftTooShort
from .features import FeatureMatrix, FeatureSpec, build_features
from .frame import Scaler, SplitSpec, TimeSeriesFrame
from .lasso import LassoConfig, lasso_cv
from .metrics import EvalReport, evaluate
from .mlp import MlpConfig, mlp_predict, mlp_train
from .serialize import record, sha256_arrays, write_csv

log = logging.getLogger(__name__)

BASELINE = "baseline"
DRIFT_RETRAIN = "retrain"
MLP = "mlp"
LASSO = "lasso"
FAMILIES = (MLP, LASSO)

SCALE_STANDARDIZED = "standardized"
SCALE_ORIGINAL = "original"


@dataclass(frozen=True)
class DetectionConfig:
    """What the changepoint detector sees, under the ``l2_mean`` cost.

    ``columns=None`` (or empty) detects on the training-block target;
    naming feature columns detects jointly over them, standardized. ``beta=None`` derives
    the penalty from first-difference variance, summed across detection
    columns.
    """

    columns: tuple[str, ...] | None = None
    beta: float | None = None

    def __post_init__(self):
        if isinstance(self.columns, str):
            raise DriftcastError(f"columns must be a sequence of names, got the string "
                                 f"{self.columns!r}")
        object.__setattr__(self, "columns", tuple(self.columns) if self.columns else None)


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
            raise DriftcastError(f"unknown strategy {self.strategy!r}")
        if self.model not in FAMILIES:
            raise DriftcastError(f"unknown model family {self.model!r}")
        if self.metric_scale not in (SCALE_STANDARDIZED, SCALE_ORIGINAL):
            raise DriftcastError(f"unknown metric scale {self.metric_scale!r}")
        if self.seed < 0:
            raise DriftcastError(f"seed must be >= 0, got {self.seed}")
        # one seed per run: the MLP trains with (and reports) the run's seed
        object.__setattr__(self, "mlp", replace(self.mlp, seed=self.seed))

    @property
    def family(self) -> MlpConfig | LassoConfig:
        """The chosen family's settings: the field named like the family."""
        return getattr(self, self.model)

    def to_dict(self) -> dict:
        d = {
            "strategy": self.strategy,
            "model": self.model,
            "feature_spec": record(self.feature_spec),
            "split": record(self.split),
            "seed": self.seed,
            "metric_scale": self.metric_scale,
            "dataset_id": self.dataset_id,
            self.model: record(self.family),
        }
        if self.strategy == DRIFT_RETRAIN:
            d["detection"] = record(self.detection)
        return d


@dataclass
class RunReport:
    """Serializable outcome of one strategy run; ``serialize.record`` writes it.

    ``config`` is the one place that names the run: its strategy, model,
    seed, metric scale and dataset. ``dataset_sha256`` is the sha256 of the
    data file, which only the CLI reads, so it stays ``""`` from :func:`run`.
    """

    eval: EvalReport
    segmentation: cp.Segmentation | None
    training_rows_used: int
    config: dict
    test_sha256: str
    test_target_sha256: str
    dataset_sha256: str = ""
    fallback_reason: str | None = None

    @staticmethod
    def from_dict(d: dict, source: str = "report") -> "RunReport":
        """Inverse of ``serialize.record``; keys it does not write are ignored."""
        try:
            seg = d["segmentation"]
            report = RunReport(
                eval=EvalReport.from_dict(d["eval"]),
                segmentation=None if seg is None else cp.Segmentation.from_dict(seg),
                training_rows_used=int(d["training_rows_used"]),
                config=dict(d["config"]),
                test_sha256=d["test_sha256"],
                test_target_sha256=d["test_target_sha256"],
                dataset_sha256=d["dataset_sha256"],
                fallback_reason=d["fallback_reason"],
            )
            # compare matches reports by the test block, then groups, sorts
            # and labels them by these config entries
            cfg = report.config
            names = (report.test_target_sha256, cfg["model"], cfg["strategy"])
            if all(isinstance(v, str) and v for v in names) and type(cfg["seed"]) is int:
                return report
        except (AttributeError, KeyError, TypeError, ValueError):
            pass
        raise DriftcastError(f"{source} is not a run report")


@dataclass
class RunResult:
    """In-memory run outcome: the report plus everything a caller might
    want to inspect or plot (kept out of the serialized artifact)."""

    report: RunReport
    model: object
    predictions: np.ndarray          # original target units, test block
    test_y: np.ndarray               # original target units
    test_timestamps: np.ndarray
    side_csv: tuple[str, Callable[[str], None]]  # (stem suffix, writer) of the fit record


@dataclass
class _Prepared:
    train: FeatureMatrix
    test: FeatureMatrix
    eval_scaler: Scaler
    test_sha: str
    test_target_sha: str


def _prepare(frame: TimeSeriesFrame, target: str, config: StrategyConfig) -> _Prepared:
    features = build_features(frame, target, config.feature_spec)
    boundary = config.split.boundary(frame.n)
    train_rows = boundary - features.origin_index
    test_rows = features.rows - train_rows
    if train_rows < 10:
        raise DriftcastError(
            f"only {max(train_rows, 0)} training feature rows after warmup "
            f"{features.origin_index} (boundary {boundary})")
    if test_rows < 2:
        raise DriftcastError(f"only {test_rows} test feature rows")
    train = features.slice(0, train_rows)
    test = features.slice(train_rows, features.rows)
    # Shared evaluation scale: one affine map fit on the full training-block
    # target, identical across strategies so scores stay comparable.
    eval_scaler = Scaler.fit(train.y)
    test_sha = sha256_arrays(test.X, test.y)
    test_target_sha = sha256_arrays(test.timestamps, test.y)
    return _Prepared(train, test, eval_scaler, test_sha, test_target_sha)


def _fit_and_report(config: StrategyConfig, prep: _Prepared, train_slice: FeatureMatrix,
                    segmentation: cp.Segmentation | None = None,
                    fallback_reason: str | None = None) -> RunResult:
    """Fit the configured family on ``train_slice`` and score it on the test block.

    The one place that branches on the model family: each branch yields the
    model, its test-block predictions and the side CSV that records the fit.
    """
    if config.model == MLP:
        model, train_report = mlp_train(config.mlp, train_slice)
        preds = mlp_predict(model, prep.test.X)
        side_csv = ("_loss.csv", train_report.to_csv)
    else:
        model = lasso_cv(train_slice, config.lasso)
        preds = model.predict(prep.test.X)
        side_csv = ("_cv.csv", model.cv_to_csv)

    if config.metric_scale == SCALE_STANDARDIZED:
        y_eval = prep.eval_scaler.transform(prep.test.y)
        p_eval = prep.eval_scaler.transform(preds)
    else:
        y_eval, p_eval = prep.test.y, preds
    report = RunReport(
        eval=evaluate(y_eval, p_eval),
        segmentation=segmentation,
        training_rows_used=train_slice.rows,
        config=config.to_dict(),
        test_sha256=prep.test_sha,
        test_target_sha256=prep.test_target_sha,
        fallback_reason=fallback_reason,
    )
    return RunResult(report, model, preds, prep.test.y.copy(),
                     prep.test.timestamps.copy(), side_csv)


def detect_training_drift(prep: _Prepared, config: StrategyConfig) -> cp.Segmentation:
    """Changepoints over the training block only (feature-row indexing).

    By default the detector watches the target values aligned with the
    training rows; ``DetectionConfig.columns`` names feature columns to
    watch jointly instead.
    """
    det = config.detection
    train = prep.train
    if not det.columns:
        return cp.pelt_detect(train.y, cp.L2_MEAN, det.beta)
    unknown = [n for n in det.columns if n not in train.feature_names]
    if unknown:
        raise DriftcastError(f"no feature column named {unknown[0]!r} to detect on")
    idx = [train.feature_names.index(n) for n in det.columns]
    return cp.multivariate_detect(train.X[:, idx], cp.L2_MEAN, det.beta)


def run(frame: TimeSeriesFrame, target: str, config: StrategyConfig) -> RunResult:
    """Fit ``config.model`` under ``config.strategy`` and score it on the test block.

    A retrain cuts where the lags and rolling windows of the feature rows
    have cleared the last target changepoint (``warmup`` rows after it,
    clamped to the training block); changepoints on named feature columns
    are already in feature space and cut where they fall. It falls back to
    the baseline training set (and flags the report) when no changepoint is
    found or the post-drift segment is below the model's minimum row count;
    with the same seed the fallback reproduces the baseline scores exactly.
    """
    prep = _prepare(frame, target, config)
    if config.strategy == BASELINE:
        return _fit_and_report(config, prep, prep.train)
    segmentation = detect_training_drift(prep, config)
    cut = segmentation.changepoints[-1] if segmentation.changepoints else None
    if cut is not None and not config.detection.columns:
        cut = min(cut + config.feature_spec.warmup, prep.train.rows)

    min_rows = config.family.min_rows
    fallback_reason = None
    if cut is None:
        fallback_reason = "no_changepoints"
        log.info("no changepoints in training block; falling back to baseline")
    elif prep.train.rows - cut < min_rows:
        fallback_reason = "post_drift_too_short"
        warnings.warn(
            f"post-drift segment has {prep.train.rows - cut} clean rows, below the "
            f"minimum of {min_rows}; falling back to baseline",
            PostDriftTooShort)

    train_slice = prep.train if fallback_reason else prep.train.slice(cut, prep.train.rows)
    return _fit_and_report(config, prep, train_slice, segmentation, fallback_reason)


@dataclass
class ComparisonTable:
    """Per-(model, strategy) metrics with deltas against the matching baseline."""

    rows: list[dict]

    def to_csv(self, path) -> None:
        headers = ["model", "strategy", "mae", "rmse", "r2",
                   "mae_reduction_rel", "rmse_reduction_rel", "r2_gain",
                   "training_rows_used", "seed"]
        write_csv(path, headers, ([row.get(h) for h in headers] for row in self.rows))

    def panels(self):
        label = lambda r: f"{r['model']}-{r['strategy']}"
        return [
            ("MAE", [(label(r), r["mae"]) for r in self.rows]),
            ("RMSE", [(label(r), r["rmse"]) for r in self.rows]),
            ("R2", [(label(r), r["r2"]) for r in self.rows]),
        ]


def compare(reports: list[RunReport]) -> ComparisonTable:
    """Tabulate runs that share a test block and a metric scale; deltas vs.
    the same-family baseline.

    Relative reductions are (baseline - other) / baseline, so a retrain
    that is worse than its baseline shows up as a negative reduction.
    """
    if not reports:
        raise DriftcastError("nothing to compare")
    hashes = {r.test_target_sha256 for r in reports}
    if len(hashes) > 1:
        raise DriftcastError(
            f"reports cover {len(hashes)} different test blocks")
    # the test-block hash is the same on either scale, so check it apart
    scales = sorted({str(r.config.get("metric_scale")) for r in reports})
    if len(scales) > 1:
        raise DriftcastError(f"reports use different metric scales: {', '.join(scales)}")

    baselines = {r.config["model"]: r for r in reports if r.config["strategy"] == BASELINE}
    rows = []
    order = {BASELINE: 0, DRIFT_RETRAIN: 1}
    for r in sorted(reports, key=lambda r: (r.config["model"],
                                            order.get(r.config["strategy"], 2))):
        model, strategy = r.config["model"], r.config["strategy"]
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
            "seed": r.config["seed"],
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
