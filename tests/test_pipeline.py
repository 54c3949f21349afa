import hashlib
import json
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

from driftcast.errors import DriftcastError, PostDriftTooShort
from driftcast.features import FeatureSpec, build_features
from driftcast.frame import SplitSpec, TimeSeriesFrame
from driftcast import pipeline
from driftcast.changepoint import Segmentation, op_detect
from driftcast.lasso import LassoConfig
from driftcast.mlp import MlpConfig, mlp_train
from driftcast.pipeline import (
    BASELINE,
    DRIFT_RETRAIN,
    LASSO,
    MLP,
    DetectionConfig,
    RunReport,
    StrategyConfig,
    compare,
    run,
)
from driftcast.serialize import record, sha256_arrays
from driftcast.synth import SUDDEN, GRADUAL, DriftEvent, SynthConfig, generate

TARGET = "interest_rate"
SMALL_MLP = MlpConfig(hidden=(16,), max_epochs=60, seed=0)


def scaled_config(seed=0, events="both"):
    evs = []
    if events in ("both", "jump"):
        evs.append(DriftEvent(SUDDEN, "2020-05-01T00:00", jump=2.0))
    if events == "both":
        evs.append(DriftEvent(GRADUAL, "2020-02-01T00:00", total_shift=1.0,
                              duration_hours=30 * 24))
    return SynthConfig(start="2020-01-01T00:00", end="2020-06-30T23:00",
                       events=tuple(evs), seed=seed)


def strategy(model=MLP, seed=0, **kw):
    kw.setdefault("dataset_id", "scaled-synth")
    if model == MLP:
        kw.setdefault("mlp", SMALL_MLP)
    return StrategyConfig(model=model, seed=seed, **kw)


@pytest.fixture(scope="module")
def drifted_frame():
    return generate(scaled_config())


@pytest.fixture(scope="module")
def stationary_frame():
    return generate(scaled_config(events="none"))


def train_rows(frame, cfg):
    """Feature rows in the training block, the baseline's training set."""
    return pipeline._prepare(frame, TARGET, cfg).train.rows


def metrics_equal(a, b):
    return (a.eval.mae == b.eval.mae and a.eval.rmse == b.eval.rmse
            and a.eval.r2 == b.eval.r2 and a.eval.n == b.eval.n)


class TestBaseline:
    def test_uses_all_training_rows(self, drifted_frame):
        cfg = strategy()
        res = run(drifted_frame, TARGET, cfg)
        assert res.report.segmentation is None
        assert res.report.training_rows_used == train_rows(drifted_frame, cfg)
        assert res.report.fallback_reason is None

    def test_deterministic(self, drifted_frame):
        a = run(drifted_frame, TARGET, strategy(seed=4))
        b = run(drifted_frame, TARGET, strategy(seed=4))
        assert record(a.report) == record(b.report)
        assert np.array_equal(a.predictions, b.predictions)

    def test_lasso_runs(self, drifted_frame):
        res = run(drifted_frame, TARGET, strategy(model=LASSO))
        assert res.report.config["model"] == LASSO
        assert res.model.cv_results

    def test_too_few_training_rows(self):
        frame = generate(SynthConfig(start="2020-01-01T00:00", end="2020-01-08T23:00",
                                     events=(), seed=0))
        with pytest.raises(DriftcastError, match="only 0 training feature rows"):
            run(frame, TARGET, strategy())


class TestRetrain:
    WARMUP = 168  # the default feature spec's longest lag / window

    def test_detects_injected_drift(self, drifted_frame):
        cfg = strategy(strategy=DRIFT_RETRAIN)
        res = run(drifted_frame, TARGET, cfg)
        seg = res.report.segmentation
        assert seg is not None and seg.m >= 1
        assert res.report.fallback_reason is None
        # the step was injected at raw row 2904, which is feature row 2904 - 168;
        # training starts once the longest lag has crossed it
        tau = seg.changepoints[-1]
        assert abs(tau - (2904 - self.WARMUP)) <= 24
        assert res.report.training_rows_used == (
            train_rows(drifted_frame, cfg) - (tau + self.WARMUP))

    def test_final_changepoint_oracle_checked(self, drifted_frame):
        cfg = strategy(strategy=DRIFT_RETRAIN)
        res = run(drifted_frame, TARGET, cfg)
        fm = build_features(drifted_frame, TARGET, cfg.feature_spec)
        boundary = cfg.split.boundary(drifted_frame.n)
        train = fm.slice(0, boundary - fm.origin_index)
        assert res.report.segmentation.changepoints == op_detect(train.y).changepoints

    def test_training_rows_accounting(self, drifted_frame):
        cfg = strategy(strategy=DRIFT_RETRAIN)
        res = run(drifted_frame, TARGET, cfg)
        cut = res.report.segmentation.changepoints[-1] + cfg.feature_spec.warmup
        assert res.report.training_rows_used == train_rows(drifted_frame, cfg) - cut
        assert res.report.config["detection"] == {"columns": None, "beta": None}

    def test_named_columns_cut_where_they_fall(self, drifted_frame):
        cfg = strategy(strategy=DRIFT_RETRAIN, detection=DetectionConfig(columns=("lag_168",)))
        res = run(drifted_frame, TARGET, cfg)
        tau = res.report.segmentation.changepoints[-1]
        assert abs(tau - 2904) <= 24
        assert res.report.training_rows_used == train_rows(drifted_frame, cfg) - tau
        assert res.report.config["detection"]["columns"] == ["lag_168"]

    def test_fallback_on_stationary_data(self, stationary_frame):
        cfg = strategy(seed=3)
        base = run(stationary_frame, TARGET, cfg)
        retr = run(stationary_frame, TARGET, replace(cfg, strategy=DRIFT_RETRAIN))
        assert retr.report.fallback_reason == "no_changepoints"
        assert retr.report.segmentation.m == 0
        assert metrics_equal(base.report, retr.report)
        assert np.array_equal(base.predictions, retr.predictions)
        assert retr.report.training_rows_used == base.report.training_rows_used

    @staticmethod
    def step_before_split(hours):
        base_cfg = scaled_config(events="none")
        boundary_ts = int(base_cfg.start + 3494 * 3600)
        return generate(SynthConfig(
            start=base_cfg.start, end=base_cfg.end,
            events=(DriftEvent(SUDDEN, boundary_ts - hours * 3600, jump=3.0),), seed=1))

    def test_fallback_when_post_drift_too_short(self):
        frame, cfg = self.step_before_split(4), strategy(seed=1, strategy=DRIFT_RETRAIN)
        with pytest.warns(PostDriftTooShort, match="below the minimum of 10"):
            res = run(frame, TARGET, cfg)
        assert res.report.fallback_reason == "post_drift_too_short"
        assert res.report.training_rows_used == train_rows(frame, cfg)

    def test_lasso_falls_back_below_its_row_minimum(self, drifted_frame):
        # six clean rows pass cv_folds + 1 but leave the first CV fold one
        # row; the lasso minimum (cv_folds + 2 = 7) sends this to the baseline
        cfg = strategy(model=LASSO)

        def six_clean_rows(prep, config):
            rows = prep.train.rows
            return Segmentation((rows - 6 - self.WARMUP,), rows, 0.0)

        with mock.patch.object(pipeline, "detect_training_drift", six_clean_rows), \
                pytest.warns(PostDriftTooShort, match="has 6 clean rows, below the minimum of 7"):
            retr = run(drifted_frame, TARGET, replace(cfg, strategy=DRIFT_RETRAIN))
        base = run(drifted_frame, TARGET, cfg)
        assert retr.report.fallback_reason == "post_drift_too_short"
        assert retr.report.training_rows_used == base.report.training_rows_used
        assert metrics_equal(base.report, retr.report)

    def test_cut_clamps_to_training_block(self):
        # the target changepoint is found, but no training row has a feature
        # window clear of it
        frame, cfg = self.step_before_split(100), strategy(seed=1, strategy=DRIFT_RETRAIN)
        with pytest.warns(PostDriftTooShort, match="has 0 clean rows"):
            res = run(frame, TARGET, cfg)
        tau = res.report.segmentation.changepoints[-1]
        rows = train_rows(frame, cfg)
        assert rows - self.WARMUP < tau < rows - 10
        assert res.report.fallback_reason == "post_drift_too_short"
        assert res.report.training_rows_used == rows

    def test_run_dispatch(self, drifted_frame):
        a = run(drifted_frame, TARGET, strategy(strategy=BASELINE))
        b = run(drifted_frame, TARGET, strategy(strategy=DRIFT_RETRAIN))
        assert a.report.segmentation is None
        assert b.report.segmentation is not None
        # the report records the strategy the config names
        assert [r.report.config["strategy"] for r in (a, b)] == [BASELINE, DRIFT_RETRAIN]


class TestSeed:
    def test_mlp_trains_with_the_run_seed(self, drifted_frame):
        assert StrategyConfig(seed=4, mlp=MlpConfig(seed=0)).to_dict()["mlp"]["seed"] == 4
        small = replace(SMALL_MLP, max_epochs=3)
        cfg = strategy(seed=4, mlp=small)
        res = run(drifted_frame, TARGET, cfg)
        assert res.report.config["mlp"]["seed"] == res.report.config["seed"] == 4
        train = pipeline._prepare(drifted_frame, TARGET, cfg).train
        model, _ = mlp_train(replace(small, seed=4), train)
        assert json.dumps(res.model.to_dict()) == json.dumps(model.to_dict())


class TestLeakage:
    def test_test_block_rows_never_influence_training(self, drifted_frame):
        cfg = strategy(seed=2, strategy=DRIFT_RETRAIN)
        boundary = cfg.split.boundary(drifted_frame.n)
        poisoned_vals = drifted_frame.column(TARGET).copy()
        poisoned_vals[boundary:] += 1000.0
        poisoned = TimeSeriesFrame(drifted_frame.timestamps, {TARGET: poisoned_vals})

        a = run(drifted_frame, TARGET, cfg)
        b = run(poisoned, TARGET, cfg)
        # detection and the trained model see only training rows
        assert a.report.segmentation.changepoints == b.report.segmentation.changepoints
        for wa, wb in zip(a.model.weights, b.model.weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(a.model.input_scaler.means, b.model.input_scaler.means)
        # the poisoning did change the test block
        assert a.report.test_sha256 != b.report.test_sha256

    def test_identical_test_blocks_across_strategies(self, drifted_frame):
        cfg = strategy(seed=5)
        a = run(drifted_frame, TARGET, cfg)
        b = run(drifted_frame, TARGET, replace(cfg, strategy=DRIFT_RETRAIN))
        assert a.report.test_sha256 == b.report.test_sha256
        assert np.array_equal(a.test_y, b.test_y)

    def test_train_slice_matches_train_only_build(self, drifted_frame):
        cfg = strategy()
        boundary = cfg.split.boundary(drifted_frame.n)
        full = build_features(drifted_frame, TARGET, cfg.feature_spec)
        head = TimeSeriesFrame(drifted_frame.timestamps[:boundary],
                               {TARGET: drifted_frame.column(TARGET)[:boundary]})
        train_only = build_features(head, TARGET, cfg.feature_spec)
        sliced = full.slice(0, boundary - full.origin_index)
        assert np.array_equal(sliced.X, train_only.X)
        assert np.array_equal(sliced.y, train_only.y)


class TestCompare:
    def test_deltas_against_baseline(self, drifted_frame):
        cfg_b = strategy(seed=6)
        cfg_r = strategy(seed=6, strategy=DRIFT_RETRAIN)
        a = run(drifted_frame, TARGET, cfg_b)
        b = run(drifted_frame, TARGET, cfg_r)
        table = compare([a.report, b.report])
        assert len(table.rows) == 2
        base_row = next(r for r in table.rows if r["strategy"] == BASELINE)
        retr_row = next(r for r in table.rows if r["strategy"] == DRIFT_RETRAIN)
        assert base_row["mae_reduction_rel"] is None
        expect = (a.report.eval.mae - b.report.eval.mae) / a.report.eval.mae
        assert abs(retr_row["mae_reduction_rel"] - expect) < 1e-15
        assert abs(retr_row["r2_gain"] - (b.report.eval.r2 - a.report.eval.r2)) < 1e-15

    def test_identical_reports_zero_deltas(self, stationary_frame):
        cfg = strategy(seed=3)
        a = run(stationary_frame, TARGET, cfg)
        # the retrain falls back -> same metrics
        b = run(stationary_frame, TARGET, replace(cfg, strategy=DRIFT_RETRAIN))
        table = compare([a.report, b.report])
        retr_row = next(r for r in table.rows if r["strategy"] == DRIFT_RETRAIN)
        assert retr_row["mae_reduction_rel"] == 0.0
        assert retr_row["r2_gain"] == 0.0

    def test_negative_reduction_reported(self):
        def mk(strategy_name, mae):
            from driftcast.metrics import EvalReport
            config = {"model": MLP, "strategy": strategy_name, "seed": 0}
            return RunReport(EvalReport(mae, mae * 1.2, 0.5, 100), None, 100, config, "X", "T")
        table = compare([mk(BASELINE, 0.1), mk(DRIFT_RETRAIN, 0.2)])
        retr_row = next(r for r in table.rows if r["strategy"] == DRIFT_RETRAIN)
        assert retr_row["mae_reduction_rel"] < 0

    def test_mismatched_test_blocks_rejected(self, drifted_frame, stationary_frame):
        a = run(drifted_frame, TARGET, strategy())
        b = run(stationary_frame, TARGET, strategy())
        with pytest.raises(DriftcastError, match="reports cover 2 different test blocks"):
            compare([a.report, b.report])

    def test_csv_emission(self, tmp_path, drifted_frame):
        cfg = strategy(seed=7)
        a = run(drifted_frame, TARGET, cfg)
        table = compare([a.report])
        out = tmp_path / "cmp.csv"
        table.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("model,strategy,mae,rmse,r2")
        assert len(lines) == 2


class TestRunReportSerialization:
    def test_round_trip(self, drifted_frame):
        res = run(drifted_frame, TARGET, strategy(seed=8, strategy=DRIFT_RETRAIN))
        d = record(res.report)
        back = RunReport.from_dict(d)
        assert record(back) == d
        assert back.segmentation.changepoints == res.report.segmentation.changepoints

    @pytest.mark.parametrize("cls", [LassoConfig, MlpConfig, FeatureSpec, DetectionConfig,
                                     SplitSpec])
    def test_config_dicts_name_every_field(self, cls):
        # a setting reaches report bytes only as a field, and every field does
        key = {LassoConfig: LASSO, MlpConfig: MLP, FeatureSpec: "feature_spec",
               DetectionConfig: "detection", SplitSpec: "split"}[cls]
        cfg = StrategyConfig(strategy=DRIFT_RETRAIN, model=LASSO if cls is LassoConfig else MLP)
        assert list(cfg.to_dict()[key]) == [f.name for f in fields(cls)]

    @pytest.mark.parametrize("columns,written", [((), None), (["lag_1"], ["lag_1"])])
    def test_detection_columns_written(self, columns, written):
        cfg = StrategyConfig(strategy=DRIFT_RETRAIN, detection=DetectionConfig(columns=columns))
        assert cfg.to_dict()["detection"]["columns"] == written

    def test_detection_columns_not_a_string(self):
        # a string is a sequence too: it would be split into one-letter names
        with pytest.raises(DriftcastError, match="got the string 'lag_1'"):
            DetectionConfig(columns="lag_1")

    @pytest.mark.parametrize("model", [MLP, LASSO])
    def test_report_names_only_its_family(self, model):
        cfg = StrategyConfig(model=model)
        d = cfg.to_dict()
        other = LASSO if model == MLP else MLP
        assert d[model] == record(getattr(cfg, model))
        assert other not in d


# sha256 of the test-block predictions and of ``json.dumps(model.to_dict())``
# on ``drifted_frame``, seed 0 (MLP capped at 3 epochs). Recorded with numpy
# 2.4.6 on x86-64 before the standardization code was shared, the lasso
# baseline again when its solver became exact, and the model digests again,
# with the same values, when JSON floats took their shortest round-trip
# text, and the lasso baseline's predictions again when each row's sum
# stopped depending on the BLAS thread count; any change to scaling, fitting or prediction arithmetic shows up here.
GOLDEN = {
    (MLP, BASELINE): ("e83de2c9756ee999ff5cb118fd2aefa7eaebef38830a4f3fcc67cab11d98cd96",
                      "2e484e10db1f0755814de4ee9211bf1c2012f5361d6bb1066bb1bc134d406923"),
    (MLP, DRIFT_RETRAIN): ("3c1bc3a1e9ae03e26c6c3cfc4fa86fae8efa8b6dbb45340f1a9bc940f06aa838",
                           "4380b3786b06546f0f06ad3a3d81cbbee4775fb28ee33aae82044f546af361ce"),
    (LASSO, BASELINE): ("ca0b7e3d7d047cb7e6951c4763270b4e3dd343a946ed7b893c3fdf969dd69180",
                        "c684a29a432bbe101a9ea0a60ee1af9a7176934b4224f8db54a0c737452d838b"),
    (LASSO, DRIFT_RETRAIN): ("9cd7d162753b62ddd1e6d7b9c555a49bd60cfd30b7d803c94f52f7a24d3569cb",
                             "6d9c7e27069a9ba7b8df145089c96dfb9cebaedf435503a327d3a825daea73b4"),
}


@pytest.mark.parametrize("model,strategy_name", sorted(GOLDEN))
def test_golden_model_bits(drifted_frame, model, strategy_name):
    cfg = strategy(model=model, strategy=strategy_name,
                   mlp=replace(SMALL_MLP, max_epochs=3))
    res = run(drifted_frame, TARGET, cfg)
    model_sha = hashlib.sha256(json.dumps(res.model.to_dict()).encode()).hexdigest()
    assert (sha256_arrays(res.predictions), model_sha) == GOLDEN[model, strategy_name]
