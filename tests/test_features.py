import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcast.errors import LagExceedsLength, UnsupportedDegree, WindowTooSmall
from driftcast.features import (
    FeatureSpec,
    build_features,
    cyclic_encode,
    make_lags,
    polynomial_expand,
    rolling_stats,
)
from driftcast.frame import HOUR, TimeSeriesFrame


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
        with pytest.raises(LagExceedsLength):
            make_lags(np.arange(5.0), [0])

    def test_lag_too_long(self):
        with pytest.raises(LagExceedsLength):
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
        with pytest.raises(WindowTooSmall):
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
        with pytest.raises(UnsupportedDegree):
            polynomial_expand(np.ones((2, 2)), ("a", "b"), 3)


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

    def test_csv_export(self, tmp_path):
        frame = hourly_frame(np.arange(30.0))
        fm = build_features(frame, "y", FeatureSpec(lags=(1,), rolling_windows=(2,)))
        out = tmp_path / "fm.csv"
        fm.to_csv(out, target_name="y")
        header = out.read_text().splitlines()[0]
        assert header.endswith(",y")
        assert len(out.read_text().splitlines()) == fm.rows + 1
