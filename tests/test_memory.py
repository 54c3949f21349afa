"""Traced peak memory of the feature, scaling, lasso-CV, MLP and detection layers.

Each bound is the peak tracemalloc measured for the operation on the
default synth series (numpy 2.4.6, x86-64) plus a 25% margin. Building
a full-size temporary copy of the design matrix, or keeping every CV
fold's standardized copy alive, breaks it; only ``Scaler.transform``
returns one, as its result.
"""

import tracemalloc

import numpy as np
import pytest

from driftcast.changepoint import pelt_detect
from driftcast.features import FeatureSpec, build_features
from driftcast.frame import HOUR, Scaler, SplitSpec
from driftcast.lasso import lasso_cv
from driftcast.mlp import MlpConfig, mlp_predict, mlp_train
from driftcast.synth import TARGET_COLUMN, SynthConfig, generate

MB = 1e6


def traced_peak(fn) -> float:
    """Peak bytes traced while ``fn()`` runs, its result included."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def series():
    return generate()


def training_block(series, degree, test=False):
    """The degree's training rows, or with ``test`` its test rows."""
    fm = build_features(series, TARGET_COLUMN, FeatureSpec(polynomial_degree=degree))
    edge = SplitSpec().boundary(series.n) - fm.origin_index
    return fm.slice(edge, fm.rows) if test else fm.slice(0, edge)


def test_degree_two_features(series):
    # measured 27.7 MB, of which 21.5 MB is the 34,896 x 77 result itself
    spec = FeatureSpec(polynomial_degree=2)
    assert traced_peak(lambda: build_features(series, TARGET_COLUMN, spec)) < 34.7 * MB


def test_scaler_fit(series):
    # measured 1.3 MB on the 27,883 x 77 block: deviations squared 2,048
    # rows at a time in one buffer, not the 17.2 MB of the whole matrix's
    X = training_block(series, 2).X
    assert traced_peak(lambda: Scaler.fit(X)) < 1.66 * MB


def test_scaler_transform(series):
    # measured 17.2 MB: the 27,883 x 77 result and nothing of its size besides
    X = training_block(series, 2).X
    scaler = Scaler.fit(X)
    assert traced_peak(lambda: scaler.transform(X)) < 21.6 * MB


def test_lasso_cv(series):
    # measured 1.8 MB at degree 1 (the full block's standardized copy is 2.5 MB)
    train = training_block(series, 1)
    assert traced_peak(lambda: lasso_cv(train)) < 2.2 * MB


def test_lasso_cv_degree_two(series):
    # measured 3.0 MB, most of it one validation fold's standardized copy
    # (2.9 MB); the training fold's copy would be 14.3 MB
    train = training_block(series, 2)
    assert traced_peak(lambda: lasso_cv(train)) < 3.7 * MB


def test_mlp_train(series):
    # measured 6.4 MB at degree 2, most of it the standardized validation
    # rows (1.7 MB) and their forward pass; the standardized 27,883 x 77
    # copy (17.2 MB), a whole epoch's batch gather (15.5 MB) or dropout
    # draws (25.7 MB) held at once breaks it
    train = training_block(series, 2)
    assert traced_peak(lambda: mlp_train(MlpConfig(max_epochs=1), train)) < 8.0 * MB


def test_mlp_predict(series):
    # measured 3.5 MB on the 7,013 x 77 test block: one 2,048-row block
    # standardized and its forward pass, not the block's 4.3 MB copy
    model, _ = mlp_train(MlpConfig(max_epochs=1), training_block(series, 2))
    test = training_block(series, 2, test=True)
    assert traced_peak(lambda: mlp_predict(model, test.X)) < 4.35 * MB


def test_pelt_detect_quiet_series():
    # measured 1.32 MB on 8,000 event-free rows, where interval pruning
    # keeps a few hundred candidates alive
    config = SynthConfig(end=SynthConfig().start + 7999 * HOUR, events=())
    y = generate(config).column(TARGET_COLUMN)
    assert traced_peak(lambda: pelt_detect(y, beta=1.0)) < 1.65 * MB


def test_pelt_detect_constant_series():
    # measured 2.47 MB on 8,000 constant rows, where nothing prunes: the
    # candidate table (384 KB) and the interval update's blocks of 2^15
    # pairs, not one temporary per pair of candidates
    assert traced_peak(lambda: pelt_detect(np.full(8000, 3.0), beta=1.0)) < 3.09 * MB
