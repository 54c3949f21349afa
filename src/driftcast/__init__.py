"""Drift-aware forecasting: changepoint detection plus selective retraining.

The package is organized as a small numpy library:

* :mod:`driftcast.frame` — timestamped tables, CSV ingestion, scaling
* :mod:`driftcast.changepoint` — penalized segmentation (pruned + oracle)
* :mod:`driftcast.features` — lag / rolling / cyclic design matrices
* :mod:`driftcast.mlp`, :mod:`driftcast.lasso` — the two model families
* :mod:`driftcast.metrics` — MAE / RMSE / R^2
* :mod:`driftcast.synth` — seeded drift-injection data generator
* :mod:`driftcast.pipeline` — baseline vs. drift-aware retraining runs
* :mod:`driftcast.cli` — the ``driftcast`` command
"""

from .changepoint import (
    Segmentation,
    default_penalty,
    multivariate_detect,
    op_detect,
    pelt_detect,
)
from .features import FeatureMatrix, FeatureSpec, build_features
from .frame import (
    Scaler,
    SplitSpec,
    TimeSeriesFrame,
    forward_fill,
    load_csv,
    resample_hourly,
    write_csv,
)
from .lasso import LassoConfig, LassoModel, lasso_cv, lasso_fit, timeseries_folds
from .metrics import EvalReport, evaluate, mae, r2, rmse
from .mlp import MlpConfig, MlpModel, TrainReport, mlp_forward, mlp_gradients, mlp_predict, mlp_train
from .pipeline import (
    ComparisonTable,
    DetectionConfig,
    RunReport,
    RunResult,
    StrategyConfig,
    compare,
    run,
)
from .synth import DriftEvent, SynthConfig, generate, ground_truth

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
