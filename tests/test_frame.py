import math

import numpy as np
import pytest

from driftcast.errors import (
    DuplicateTimestamp,
    EmptyFile,
    LeadingGap,
    MissingColumn,
    TooFewRows,
    UnparseableTimestamp,
)
from driftcast.frame import (
    HOUR,
    Scaler,
    SplitSpec,
    TimeSeriesFrame,
    apply_scaler,
    chronological_split,
    fit_scaler,
    forward_fill,
    invert_scaler,
    load_csv,
    resample_hourly,
    write_csv,
)


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
        with pytest.raises(EmptyFile):
            load_csv(empty)

        header_only = tmp_path / "header.csv"
        write_lines(header_only, ["timestamp,v"])
        with pytest.raises(EmptyFile):
            load_csv(header_only)

        no_ts = tmp_path / "nots.csv"
        write_lines(no_ts, ["time,v", "0,1"])
        with pytest.raises(MissingColumn):
            load_csv(no_ts)

        bad_ts = tmp_path / "badts.csv"
        write_lines(bad_ts, ["timestamp,v", "not-a-time,1"])
        with pytest.raises(UnparseableTimestamp):
            load_csv(bad_ts)

        dup = tmp_path / "dup.csv"
        write_lines(dup, ["timestamp,v", "0,1", "0,2"])
        with pytest.raises(DuplicateTimestamp):
            load_csv(dup)

    def test_rename_schema(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["timestamp,kW,other", "0,1.0,9", "3600,2.0,9"])
        frame = load_csv(p, columns={"kW": "elec_kW"})
        assert frame.column_names == ("elec_kW",)

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
        with pytest.raises(LeadingGap):
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
        train, test = chronological_split(frame, SplitSpec(0.8))
        assert train.n == 80 and test.n == 20
        assert train.column("v")[-1] == 79.0 and test.column("v")[0] == 80.0

    def test_half_of_ten(self):
        frame = hourly_frame(np.arange(10.0))
        train, test = chronological_split(frame, SplitSpec(0.5))
        assert train.n == 5 and test.n == 5

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            chronological_split(hourly_frame(np.arange(9.0)), SplitSpec(0.5))

    def test_partition_exact(self):
        rng = np.random.default_rng(2)
        frame = hourly_frame(rng.normal(0, 1, 57))
        train, test = chronological_split(frame, SplitSpec(0.73))
        rebuilt = np.concatenate([train.column("v"), test.column("v")])
        np.testing.assert_array_equal(rebuilt, frame.column("v"))


class TestScaler:
    def test_two_point_example(self):
        frame = hourly_frame([0.0, 2.0])
        scaler = fit_scaler(frame, ["v"])
        assert scaler.means[0] == 1.0 and scaler.stds[0] == 1.0  # population std
        scaled = apply_scaler(frame, scaler)
        assert list(scaled.column("v")) == [-1.0, 1.0]

    def test_constant_column_floored(self):
        frame = hourly_frame([5.0] * 20)
        scaler = fit_scaler(frame, ["v"])
        scaled = apply_scaler(frame, scaler)
        assert np.all(scaled.column("v") == 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        frame = hourly_frame(rng.normal(7, 3, 200))
        scaler = fit_scaler(frame, ["v"])
        back = invert_scaler(apply_scaler(frame, scaler), scaler)
        np.testing.assert_allclose(back.column("v"), frame.column("v"), rtol=1e-10)

    def test_train_mean_std_normalized(self):
        rng = np.random.default_rng(4)
        frame = hourly_frame(rng.normal(-4, 9, 500))
        scaler = fit_scaler(frame, ["v"])
        scaled = apply_scaler(frame, scaler).column("v")
        assert abs(scaled.mean()) < 1e-9
        assert abs(scaled.std() - 1.0) < 1e-9

    def test_never_references_test_rows(self):
        rng = np.random.default_rng(5)
        frame = hourly_frame(rng.normal(0, 1, 100))
        train, _ = chronological_split(frame, SplitSpec(0.8))
        full_stats = fit_scaler(frame, ["v"])
        train_stats = fit_scaler(train, ["v"])
        assert train_stats.means[0] != full_stats.means[0]
        direct = Scaler(("v",), np.array([train.column("v").mean()]),
                        np.array([train.column("v").std()]))
        assert train_stats.means[0] == direct.means[0]
        assert train_stats.stds[0] == direct.stds[0]
