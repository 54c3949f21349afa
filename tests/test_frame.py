import math

import numpy as np
import pytest

from driftcast.errors import DriftcastError, NumericError
from driftcast.features import FeatureSpec, build_features
from driftcast.frame import (
    HOUR,
    STD_FLOOR,
    Scaler,
    SplitSpec,
    TimeSeriesFrame,
    forward_fill,
    load_csv,
    resample_hourly,
    write_csv,
)
from driftcast.serialize import sha256_arrays
from driftcast.synth import TARGET_COLUMN, generate


def hourly_frame(values, start=0, name="v"):
    ts = np.arange(start, start + HOUR * len(values), HOUR, dtype=np.int64)
    return TimeSeriesFrame(ts, {name: np.asarray(values, float)})


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_three_rows_in_order(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["timestamp,v",
                        "2020-01-01T00:00:00,1.0",
                        "2020-01-01T01:00:00,2.0",
                        "2020-01-01T02:00:00,3.0"])
        frame = load_csv(p)
        assert frame.n == 3
        assert list(frame.column("v")) == [1.0, 2.0, 3.0]
        assert frame.is_hourly()

    def test_out_of_order_rows_sorted(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["timestamp,v",
                        "2020-01-01T02:00:00,3.0",
                        "2020-01-01T00:00:00,1.0",
                        "2020-01-01T01:00:00,2.0"])
        frame = load_csv(p)
        assert list(frame.column("v")) == [1.0, 2.0, 3.0]
        assert np.all(np.diff(frame.timestamps) > 0)

    def test_epoch_seconds_accepted(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["timestamp,v", "3600,1.5", "7200,2.5"])
        frame = load_csv(p)
        assert list(frame.timestamps) == [3600, 7200]

    def test_missing_markers(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["timestamp,v", "0,1.0", "3600,", "7200,NaN", "10800,oops"])
        frame = load_csv(p)
        v = frame.column("v")
        assert v[0] == 1.0
        assert np.isnan(v[1:]).all()

    def test_infinite_cells_are_missing(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["timestamp,v", "0,1.0", "3600,inf", "7200,-inf",
                        "10800,Infinity", "14400,2.0"])
        v = load_csv(p).column("v")
        assert np.isnan(v[1:4]).all()
        assert list(forward_fill(load_csv(p), "v").column("v")) == [1.0, 1.0, 1.0, 1.0, 2.0]

    def test_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(DriftcastError, match="empty.csv: no header row"):
            load_csv(empty)

        header_only = tmp_path / "header.csv"
        write_lines(header_only, ["timestamp,v"])
        with pytest.raises(DriftcastError, match="header.csv: no data rows"):
            load_csv(header_only)

        no_ts = tmp_path / "nots.csv"
        write_lines(no_ts, ["time,v", "0,1"])
        with pytest.raises(DriftcastError, match="nots.csv: no 'timestamp' column in header"):
            load_csv(no_ts)

        bad_ts = tmp_path / "badts.csv"
        write_lines(bad_ts, ["timestamp,v", "not-a-time,1"])
        with pytest.raises(DriftcastError, match="cannot parse timestamp 'not-a-time'"):
            load_csv(bad_ts)

        dup = tmp_path / "dup.csv"
        write_lines(dup, ["timestamp,v", "0,1", "0,2"])
        with pytest.raises(DriftcastError, match="dup.csv: duplicate timestamp at epoch 0"):
            load_csv(dup)

    def test_round_trip_value_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.normal(0, 1, 50)
        vals[7] = np.nan
        ts = np.arange(0, 50 * HOUR, HOUR, dtype=np.int64)
        frame = TimeSeriesFrame(ts, {"v": vals, "w": rng.normal(3, 2, 50)})
        p = tmp_path / "rt.csv"
        write_csv(frame, p)
        back = load_csv(p)
        assert np.array_equal(back.timestamps, frame.timestamps)
        for name in frame.columns:
            np.testing.assert_array_equal(back.column(name), frame.column(name))


class TestForwardFill:
    def test_fill_semantics(self):
        frame = hourly_frame([1.0, np.nan, np.nan, 4.0])
        filled = forward_fill(frame, "v")
        assert list(filled.column("v")) == [1.0, 1.0, 1.0, 4.0]

    def test_no_gaps_unchanged(self):
        frame = hourly_frame([1.0, 2.0, 3.0])
        assert forward_fill(frame, "v") is frame

    def test_leading_gap(self):
        frame = hourly_frame([np.nan, 2.0, 3.0])
        with pytest.raises(DriftcastError, match="column 'v' starts with a missing value"):
            forward_fill(frame, "v")

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(0, 1, 100)
        vals[rng.random(100) < 0.3] = np.nan
        vals[0] = 0.5
        frame = hourly_frame(vals)
        once = forward_fill(frame, "v")
        twice = forward_fill(once, "v")
        np.testing.assert_array_equal(once.column("v"), twice.column("v"))
        present = ~np.isnan(vals)
        np.testing.assert_array_equal(once.column("v")[present], vals[present])


class TestResampleHourly:
    def test_hourly_unchanged(self):
        frame = hourly_frame([1.0, 2.0, 3.0])
        assert resample_hourly(frame) is frame

    def test_gap_becomes_missing(self):
        ts = np.array([0, HOUR, 3 * HOUR], dtype=np.int64)
        frame = TimeSeriesFrame(ts, {"v": np.array([1.0, 2.0, 4.0])})
        out = resample_hourly(frame)
        assert out.n == 4
        v = out.column("v")
        assert math.isnan(v[2]) and v[3] == 4.0

    def test_15min_data_over_2h(self):
        # 9 quarter-hour points spanning two hours -> 3 on-the-hour rows
        ts = np.arange(0, 2 * HOUR + 1, 900, dtype=np.int64)
        vals = np.arange(9, dtype=float)
        frame = TimeSeriesFrame(ts, {"v": vals})
        out = resample_hourly(frame)
        assert out.n == 3
        assert list(out.timestamps) == [0, HOUR, 2 * HOUR]
        assert list(out.column("v")) == [0.0, 4.0, 8.0]


class TestSplit:
    def test_80_20(self):
        frame = hourly_frame(np.arange(100.0))
        b = SplitSpec(0.8).boundary(frame.n)
        train, test = frame.column("v")[:b], frame.column("v")[b:]
        assert train.size == 80 and test.size == 20
        assert train[-1] == 79.0 and test[0] == 80.0

    def test_half_of_ten(self):
        assert SplitSpec(0.5).boundary(10) == 5

    def test_partition_exact(self):
        rng = np.random.default_rng(2)
        frame = hourly_frame(rng.normal(0, 1, 57))
        b = SplitSpec(0.73).boundary(frame.n)
        assert b == 41  # floor(41.61)
        rebuilt = np.concatenate([frame.column("v")[:b], frame.column("v")[b:]])
        np.testing.assert_array_equal(rebuilt, frame.column("v"))


class TestScaler:
    def test_two_point_example(self):
        scaler = Scaler.fit([0.0, 2.0])
        assert scaler.means[0] == 1.0 and scaler.stds[0] == 1.0  # population std
        assert list(scaler.transform([0.0, 2.0])) == [-1.0, 1.0]

    def test_constant_column_floored(self):
        X = np.column_stack([np.full(20, 5.0), np.arange(20.0)])
        scaler = Scaler.fit(X)
        assert scaler.stds[0] == STD_FLOOR
        assert np.all(scaler.transform(X)[:, 0] == 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        X = rng.normal(7, 3, (200, 3))
        scaler = Scaler.fit(X)
        np.testing.assert_allclose(scaler.inverse(scaler.transform(X)), X, rtol=1e-10)

    def test_train_mean_std_normalized(self):
        rng = np.random.default_rng(4)
        v = rng.normal(-4, 9, 500)
        scaled = Scaler.fit(v).transform(v)
        assert abs(scaled.mean()) < 1e-9
        assert abs(scaled.std() - 1.0) < 1e-9

    def test_bits_match_axis0_reductions(self):
        # the model fits and the detection paths relied on these exact
        # reductions before they shared one helper
        rng = np.random.default_rng(6)
        X = rng.normal(3, 2, (97, 4))
        scaler = Scaler.fit(X)
        assert scaler.means.tobytes() == X.mean(axis=0).tobytes()
        assert scaler.stds.tobytes() == X.std(axis=0).tobytes()
        y = X[:, 0].copy()
        target = Scaler.fit(y)
        assert target.means.shape == (1,)
        assert target.means[0] == float(y.mean()) and target.stds[0] == float(y.std())
        assert target.transform(y).tobytes() == ((y - float(y.mean())) / float(y.std())).tobytes()

    def test_never_references_test_rows(self):
        rng = np.random.default_rng(5)
        v = rng.normal(0, 1, 100)
        train = v[:SplitSpec(0.8).boundary(v.size)]
        full_stats = Scaler.fit(v)
        train_stats = Scaler.fit(train)
        assert train_stats.means[0] != full_stats.means[0]
        assert train_stats.means[0] == train.mean()
        assert train_stats.stds[0] == train.std()

    @pytest.mark.parametrize("cell", [math.nan, math.inf, 1e200])
    def test_non_finite_statistics_rejected(self, cell):
        X = np.ones((10, 2))
        X[3, 1] = cell  # 1e200 overflows the sum of squares
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="cannot standardize: values are not finite"):
                Scaler.fit(X)


# sha256_arrays of Scaler.transform on the default synth series' training
# block (27,883 rows; degree-2 features, 77 columns, and the target),
# recorded with numpy 2.4.6 on x86-64 before transform scaled in place
TRANSFORM_GOLDEN = {
    "matrix": "1fb57acc4c49221729fff3ffc4f8e44e1306ea80aa31c3ab58a9d84243d929a9",
    "vector": "d036dc7444773102fd418022e0cb4ec797bbda90fdd40d6cd59050f898efcb73",
}


@pytest.mark.parametrize("case", sorted(TRANSFORM_GOLDEN))
def test_transform_golden_bits(case):
    frame = generate()
    fm = build_features(frame, TARGET_COLUMN, FeatureSpec(polynomial_degree=2))
    train = fm.slice(0, SplitSpec().boundary(frame.n) - fm.origin_index)
    values = train.X if case == "matrix" else train.y
    assert sha256_arrays(Scaler.fit(values).transform(values)) == TRANSFORM_GOLDEN[case]
