"""Traced peak memory of the feature, scaling and lasso-CV layers.

Each bound is the peak tracemalloc measured for the operation on the
default synth series (numpy 2.4.6, x86-64) plus a 25% margin. Building
a full-size temporary copy of the design matrix, or keeping every CV
fold's standardized copy alive, breaks it.
"""

import tracemalloc

import pytest

from driftcast.features import FeatureSpec, build_features
from driftcast.frame import Scaler, SplitSpec
from driftcast.lasso import lasso_cv
from driftcast.synth import TARGET_COLUMN, generate

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


def training_block(series, degree):
    fm = build_features(series, TARGET_COLUMN, FeatureSpec(polynomial_degree=degree))
    return fm.slice(0, SplitSpec().boundary(series.n) - fm.origin_index)


def test_degree_two_features(series):
    # measured 27.7 MB, of which 21.5 MB is the 34,896 x 77 result itself
    spec = FeatureSpec(polynomial_degree=2)
    assert traced_peak(lambda: build_features(series, TARGET_COLUMN, spec)) < 34.7 * MB


def test_scaler_transform(series):
    # measured 17.2 MB: the 27,883 x 77 result and nothing of its size besides
    X = training_block(series, 2).X
    scaler = Scaler.fit(X)
    assert traced_peak(lambda: scaler.transform(X)) < 21.6 * MB


def test_lasso_cv(series):
    # measured 3.5 MB at degree 1 (the full block's standardized copy is 2.5 MB)
    train = training_block(series, 1)
    assert traced_peak(lambda: lasso_cv(train)) < 4.4 * MB
