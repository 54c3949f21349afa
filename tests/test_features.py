import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcast import features
from driftcast.errors import DriftcastError
from driftcast.features import (
    FeatureSpec,
    build_features,
    cyclic_encode,
    make_lags,
    polynomial_expand,
    rolling_stats,
)
from driftcast.frame import HOUR, TimeSeriesFrame
from driftcast.serialize import sha256_arrays
from driftcast.synth import TARGET_COLUMN, generate


def hourly_frame(values, start=0):
    ts = np.arange(start, start + HOUR * len(values), HOUR, dtype=np.int64)
    return TimeSeriesFrame(ts, {"y": np.asarray(values, float)})


class TestCyclicEncode:
    def test_hour_zero(self):
        enc = cyclic_encode(np.array([0], dtype=np.int64))  # 1970-01-01T00 (a Thursday)
        assert abs(enc["hour_sin"][0]) < 1e-12
        assert abs(enc["hour_cos"][0] - 1.0) < 1e-12

    def test_hour_six(self):
        enc = cyclic_encode(np.array([6 * HOUR], dtype=np.int64))
        assert abs(enc["hour_sin"][0] - 1.0) < 1e-12
        assert abs(enc["hour_cos"][0]) < 1e-12

    def test_unit_circle(self):
        ts = np.arange(0, 1000 * HOUR, HOUR, dtype=np.int64)
        enc = cyclic_encode(ts)
        np.testing.assert_allclose(enc["hour_sin"] ** 2 + enc["hour_cos"] ** 2,
                                   1.0, atol=1e-12)
        np.testing.assert_allclose(enc["dow_sin"] ** 2 + enc["dow_cos"] ** 2,
                                   1.0, atol=1e-12)

    def test_monday_is_zero(self):
        # 2024-01-01 was a Monday
        from driftcast.frame import _parse_timestamp
        ts = np.array([_parse_timestamp("2024-01-01T00:00")], dtype=np.int64)
        enc = cyclic_encode(ts)
        assert abs(enc["dow_sin"][0]) < 1e-12
        assert abs(enc["dow_cos"][0] - 1.0) < 1e-12


class TestLags:
    def test_lag_one(self):
        out = make_lags(np.array([10.0, 20.0, 30.0]), [1])
        col = out["lag_1"]
        assert math.isnan(col[0])
        assert list(col[1:]) == [10.0, 20.0]

    def test_lag_two(self):
        out = make_lags(np.array([1.0, 2.0, 3.0, 4.0]), [2])
        col = out["lag_2"]
        assert np.isnan(col[:2]).all()
        assert list(col[2:]) == [1.0, 2.0]

    def test_lag_zero_rejected(self):
        with pytest.raises(DriftcastError, match="lag must be positive, got 0"):
            make_lags(np.arange(5.0), [0])

    def test_lag_too_long(self):
        with pytest.raises(DriftcastError, match="lag 5 >= series length 5"):
            make_lags(np.arange(5.0), [5])


class TestRolling:
    def test_window_three_by_hand(self):
        mean, std = rolling_stats(np.array([1.0, 2.0, 3.0, 4.0]), 3)
        assert np.isnan(mean[:3]).all()
        assert mean[3] == 2.0  # uses values 1, 2, 3
        assert abs(std[3] - math.sqrt(2.0 / 3.0)) < 1e-12

    def test_constant_series_zero_std(self):
        mean, std = rolling_stats(np.full(50, 3.3), 5)
        assert np.allclose(std[5:], 0.0)
        assert np.allclose(mean[5:], 3.3)

    def test_window_too_small(self):
        with pytest.raises(DriftcastError, match="window must be >= 2, got 1"):
            rolling_stats(np.arange(10.0), 1)

    def test_against_naive(self):
        rng = np.random.default_rng(0)
        v = rng.normal(3, 2, 300)
        for w in (2, 5, 24):
            mean, std = rolling_stats(v, w)
            for t in range(w, 300):
                window = v[t - w:t]
                assert abs(mean[t] - window.mean()) < 1e-9
                assert abs(std[t] - window.std()) < 1e-9

    def test_strictly_past_only(self):
        rng = np.random.default_rng(1)
        v = rng.normal(0, 1, 60)
        mean_a, _ = rolling_stats(v, 4)
        v2 = v.copy()
        v2[30] += 100.0  # perturb the current row
        mean_b, _ = rolling_stats(v2, 4)
        np.testing.assert_array_equal(mean_a[:31], mean_b[:31])
        assert mean_a[31] != mean_b[31]

    def test_blocks_match_the_whole_view(self, monkeypatch):
        # the reference is the unblocked two-pass reduction over the whole
        # sliding-window view; tiny blocks put many block edges in play
        rng = np.random.default_rng(8)
        v = rng.normal(0, 1, 97)
        for window in (2, 5, 13, 96):
            view = np.lib.stride_tricks.sliding_window_view(v, window)[:v.size - window]
            mu = view.mean(axis=1)
            sd = np.sqrt(((view - mu[:, None]) ** 2).mean(axis=1))
            for cells in (1, 7, window * 3 + 1, 1 << 20):
                monkeypatch.setattr(features, "_BLOCK_CELLS", cells)
                mean, std = rolling_stats(v, window)
                assert mean[window:].tobytes() == mu.tobytes()
                assert std[window:].tobytes() == sd.tobytes()
                assert np.isnan(mean[:window]).all() and np.isnan(std[:window]).all()


class TestPolynomial:
    def test_degree_one_identity(self):
        X = np.arange(6.0).reshape(3, 2)
        out, names = polynomial_expand(X, ("u", "v"), 1)
        np.testing.assert_array_equal(out, X)
        assert names == ("u", "v")

    def test_two_columns_degree_two(self):
        X = np.array([[2.0, 3.0], [4.0, 5.0]])
        out, names = polynomial_expand(X, ("u", "v"), 2)
        assert names == ("u", "v", "u*u", "v*v", "u*v")
        np.testing.assert_array_equal(out[0], [2.0, 3.0, 4.0, 9.0, 6.0])

    def test_column_count_formula(self):
        rng = np.random.default_rng(2)
        for k in (1, 3, 7):
            X = rng.normal(0, 1, (4, k))
            out, names = polynomial_expand(X, tuple(f"c{i}" for i in range(k)), 2)
            assert out.shape[1] == len(names) == k + k + k * (k - 1) // 2

    def test_unsupported_degree(self):
        with pytest.raises(DriftcastError, match="degree must be 1 or 2, got 3"):
            polynomial_expand(np.ones((2, 2)), ("a", "b"), 3)

    def test_matches_stacked_products(self):
        # reference: the products built one by one and stacked
        rng = np.random.default_rng(9)
        X = rng.normal(0, 3, (50, 6))
        prods = [X[:, i] * X[:, j] for i in range(6) for j in range(i + 1, 6)]
        expected = np.hstack([X, X * X, np.column_stack(prods)])
        out, _ = polynomial_expand(X, tuple("abcdef"), 2)
        assert out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()


class TestBuildFeatures:
    def test_default_spec_shape_and_names(self):
        rng = np.random.default_rng(3)
        frame = hourly_frame(rng.normal(0, 1, 200))
        fm = build_features(frame, "y")
        assert fm.rows == 200 - 168
        assert fm.origin_index == 168
        assert fm.feature_names == (
            "hour_sin", "hour_cos", "dow_sin", "dow_cos",
            "lag_1", "lag_24", "lag_168",
            "roll_mean_24", "roll_std_24", "roll_mean_168", "roll_std_168",
        )
        assert len(fm.feature_names) == 11

    def test_single_lag_warmup(self):
        frame = hourly_frame(np.arange(10.0))
        fm = build_features(frame, "y", FeatureSpec(lags=(1,), rolling_windows=()))
        assert fm.rows == 9

    def test_reduced_spec_without_lags(self):
        rng = np.random.default_rng(7)
        frame = hourly_frame(rng.normal(0, 1, 300))
        fm = build_features(frame, "y", FeatureSpec(lags=(), rolling_windows=(24, 168)))
        assert fm.origin_index == 168
        assert all(not n.startswith("lag_") for n in fm.feature_names)
        assert np.isfinite(fm.X).all()

    def test_all_cells_finite(self):
        rng = np.random.default_rng(4)
        frame = hourly_frame(rng.normal(0, 1, 400))
        fm = build_features(frame, "y")
        assert np.isfinite(fm.X).all()
        assert np.isfinite(fm.y).all()

    def test_causality_perturbation(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(0, 1, 250)
        fm_a = build_features(hourly_frame(vals), "y")
        t = 210  # frame row to perturb
        vals2 = vals.copy()
        vals2[t] += 50.0
        fm_b = build_features(hourly_frame(vals2), "y")
        r = t - fm_a.origin_index
        # rows at or before the perturbed instant keep identical features
        np.testing.assert_array_equal(fm_a.X[:r + 1], fm_b.X[:r + 1])
        assert not np.array_equal(fm_a.X[r + 1:], fm_b.X[r + 1:])

    @settings(max_examples=150, deadline=None)
    @given(lags=st.lists(st.integers(1, 12), max_size=3, unique=True),
           windows=st.lists(st.integers(2, 12), max_size=2, unique=True),
           degree=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_row_reads_only_its_window(self, lags, windows, degree, seed, data):
        # feature row i reads source rows [origin + i - warmup, origin + i)
        # and nothing else: the cut after a target changepoint relies on it
        spec = FeatureSpec(lags, windows, polynomial_degree=degree)
        warmup = spec.warmup
        n = data.draw(st.integers(warmup + 1, warmup + 40), label="n")
        i = data.draw(st.integers(0, n - warmup - 1), label="row")
        rng = np.random.default_rng(seed)
        vals = rng.normal(0, 1, n)
        lo, hi = i, warmup + i  # origin_index == warmup
        outside = vals.copy()
        outside[:lo] = rng.normal(5, 3, lo)
        outside[hi:] = rng.normal(-5, 3, n - hi)
        a = build_features(hourly_frame(vals), "y", spec)
        b = build_features(hourly_frame(outside), "y", spec)
        assert a.origin_index == warmup
        assert a.X[i].tobytes() == b.X[i].tobytes()
        if warmup:
            # the window's first value is read (by the longest lag or window)
            inside = vals.copy()
            inside[lo] += 50.0
            c = build_features(hourly_frame(inside), "y", spec)
            assert not np.array_equal(a.X[i], c.X[i])

    def test_determinism(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(0, 1, 300)
        a = build_features(hourly_frame(vals), "y")
        b = build_features(hourly_frame(vals), "y")
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_missing_target_rejected(self):
        vals = np.arange(200.0)
        vals[5] = np.nan
        with pytest.raises(ValueError):
            build_features(hourly_frame(vals), "y")


# sha256_arrays of the outputs on the default synth series (35,064 rows),
# recorded with numpy 2.4.6 on x86-64 before the rolling windows were
# blocked and the degree-2 expansion written into one array
FEATURE_GOLDEN = {
    1: "bcb5df9d87073ddd2cb95617f308dc3434dc6bae95c65d9cf47d225f53763dd9",
    2: "bc4a1d040653f770d222bce991162c1e548bbd09c5b39dd250a87b9e2f19eb5b",
}
ROLLING_GOLDEN = {
    2: "2544c972dced107af29725645dfd8f36cb490c83e0d409ae40e1c63e7cccea3d",
    3: "4929366010a1fee315e9bee3e29b325f408308562a059571d34c4f812fbd13a3",
    24: "2be67f7074df3c76a961db41e0fd491e2270e854ab89ea1c562eb99cad40defd",
    168: "c6b42e7ab13910f7ab144dd324c7959a63f6615380eb3aa4b9d3014491b6c971",
    "n-1": "22e0e3e9fbc431b14db075dda1693f5974563ce3b167eebb9951b73164fd54e0",
    "constant": "a7cb474f6f6cd5f74f11699e1eac34dde5234ab5a2092847bbfc5e3449ebf120",
}


@pytest.fixture(scope="module")
def default_series():
    return generate()


@pytest.mark.parametrize("degree", sorted(FEATURE_GOLDEN))
def test_build_features_golden_bits(default_series, degree):
    fm = build_features(default_series, TARGET_COLUMN, FeatureSpec(polynomial_degree=degree))
    assert sha256_arrays(fm.X) == FEATURE_GOLDEN[degree]


@pytest.mark.parametrize("case", sorted(ROLLING_GOLDEN, key=str))
def test_rolling_stats_golden_bits(default_series, case):
    y = default_series.column(TARGET_COLUMN)
    if case == "constant":
        y, window = np.full(500, 0.1), 24
    else:
        window = y.size - 1 if case == "n-1" else case
    assert sha256_arrays(*rolling_stats(y, window)) == ROLLING_GOLDEN[case]
