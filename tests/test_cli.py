import hashlib
import json

import numpy as np
import pytest

from driftcast import pipeline
from driftcast.cli import main
from driftcast.errors import NonFiniteLoss
from driftcast.serialize import load as load_json

SMALL_CONFIG = {
    "start": "2020-01-01T00:00",
    "end": "2020-06-30T23:00",
    "events": [
        {"kind": "gradual", "at": "2020-02-01T00:00",
         "total_shift": 1.0, "duration_hours": 720},
        {"kind": "sudden", "at": "2020-05-01T00:00", "jump": 2.0},
    ],
    "seed": 0,
}

STATIONARY_CONFIG = {
    "start": "2020-01-01T00:00",
    "end": "2020-06-30T23:00",
    "events": [],
    "seed": 0,
}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def with_values(src, dst, value_of_row):
    """Copy a synth CSV, replacing row i's value by ``value_of_row(i, cell)``."""
    lines = src.read_text(encoding="utf-8").splitlines()
    for i in range(1, len(lines)):
        stamp, cell = lines[i].split(",")
        lines[i] = f"{stamp},{value_of_row(i, cell)}"
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return dst


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Generated small dataset shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    data = root / "data.csv"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    flat_cfg = root / "flat.json"
    flat_cfg.write_text(json.dumps(STATIONARY_CONFIG), encoding="utf-8")
    flat = root / "flat.csv"
    assert main(["synth", "--config", str(flat_cfg), "--out", str(flat)]) == 0
    return root


class TestSynth:
    def test_outputs_and_determinism(self, workdir, tmp_path):
        data = workdir / "data.csv"
        meta = workdir / "data.csv.meta.json"
        assert data.exists() and meta.exists()
        gt = load_json(meta)
        assert gt["n"] == 4368
        assert len(gt["events"]) == 2

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
        again = tmp_path / "again.csv"
        assert main(["synth", "--config", str(cfg), "--out", str(again)]) == 0
        assert sha(again) == sha(data)

    def test_invalid_range_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"start": "2021-01-01T00:00",
                                   "end": "2020-01-01T00:00"}), encoding="utf-8")
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestDetect:
    def test_finds_injected_jump(self, workdir, tmp_path):
        out = tmp_path / "seg.json"
        plot = tmp_path / "seg.svg"
        code = main(["detect", "--data", str(workdir / "data.csv"),
                     "--out", str(out), "--plot", str(plot)])
        assert code == 0
        seg = load_json(out)
        truth = [e["at_index"] for e in load_json(workdir / "data.csv.meta.json")["events"]
                 if e["kind"] == "sudden"][0]
        assert any(abs(c - truth) <= 24 for c in seg["changepoints"])
        assert plot.read_text().startswith("<svg")

    def test_constant_series_empty(self, tmp_path):
        data = tmp_path / "const.csv"
        lines = ["timestamp,v"] + [f"{i * 3600},5.0" for i in range(300)]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "seg.json"
        assert main(["detect", "--data", str(data), "--target", "v",
                     "--out", str(out)]) == 0
        assert load_json(out)["changepoints"] == []

    def test_missing_column_exits_2(self, workdir, tmp_path):
        code = main(["detect", "--data", str(workdir / "data.csv"),
                     "--target", "nope", "--out", str(tmp_path / "s.json")])
        assert code == 2

    def test_per_column_union(self, workdir, tmp_path):
        out = tmp_path / "per.json"
        code = main(["detect", "--data", str(workdir / "data.csv"),
                     "--columns", "interest_rate", "--per-column",
                     "--out", str(out)])
        assert code == 0
        payload = load_json(out)
        assert "union_changepoints" in payload
        assert payload["columns"]["interest_rate"]["changepoints"]

    def test_infinite_cell_is_a_gap(self, workdir, tmp_path):
        data = with_values(workdir / "data.csv", tmp_path / "inf.csv",
                           lambda i, cell: "inf" if i == 500 else cell)
        out = tmp_path / "seg.json"
        assert main(["detect", "--data", str(data), "--out", str(out)]) == 0
        assert load_json(out)["changepoints"]

    def test_overflowing_series_exits_3(self, workdir, tmp_path, capsys):
        data = with_values(workdir / "data.csv", tmp_path / "huge.csv",
                           lambda i, cell: "1e200" if i % 2 else "-1e200")
        with np.errstate(over="ignore"):
            code = main(["detect", "--data", str(data), "--beta", "1",
                         "--out", str(tmp_path / "s.json")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_flag_exits_2(self, workdir):
        with pytest.raises(SystemExit) as err:
            main(["detect", "--data", str(workdir / "data.csv"), "--bogus"])
        assert err.value.code == 2


class TestRun:
    def run_one(self, workdir, out, model, strategy, seed=0, extra=()):
        args = ["run", "--data", str(workdir / "data.csv"), "--model", model,
                "--strategy", strategy, "--seed", str(seed),
                "--max-epochs", "40", "--out", str(out), *extra]
        return main(args)

    def test_retrain_report_has_segmentation(self, workdir, tmp_path):
        out = tmp_path / "r.json"
        assert self.run_one(workdir, out, "lasso", "retrain",
                            extra=["--model-out", str(tmp_path / "model.json")]) == 0
        rep = load_json(out)
        assert rep["segmentation"]["changepoints"]
        assert rep["training_rows_used"] < rep["segmentation"]["n"]
        assert rep["fallback_reason"] is None
        assert (tmp_path / "r_predictions.csv").exists()
        cv = (tmp_path / "r_cv.csv").read_text().splitlines()
        assert cv[0] == "alpha,fold,val_mse"
        assert len(cv) == 1 + 4 * 5  # grid x folds
        dump = load_json(tmp_path / "model.json")
        assert "coefficients" in dump and "chosen_alpha" in dump
        assert main(["plot", "--kind", "cv", "--data", str(tmp_path / "r_cv.csv"),
                     "--out", str(tmp_path / "cv.svg")]) == 0

    def test_stationary_flags_fallback(self, workdir, tmp_path):
        out = tmp_path / "flat.json"
        code = main(["run", "--data", str(workdir / "flat.csv"), "--model", "lasso",
                     "--strategy", "retrain", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert load_json(out)["fallback_reason"] == "no_changepoints"

    def test_mlp_emits_loss_artifacts(self, workdir, tmp_path):
        out = tmp_path / "m.json"
        code = self.run_one(workdir, out, "mlp", "baseline",
                            extra=["--loss-plot", str(tmp_path / "loss.svg"),
                                   "--plot", str(tmp_path / "pred.svg")])
        assert code == 0
        assert (tmp_path / "m_loss.csv").read_text().startswith("epoch,")
        assert (tmp_path / "loss.svg").exists()
        assert (tmp_path / "pred.svg").exists()

    def test_byte_identical_reruns(self, workdir, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert self.run_one(workdir, a, "mlp", "retrain", seed=3) == 0
        assert self.run_one(workdir, b, "mlp", "retrain", seed=3) == 0
        assert a.read_bytes() == b.read_bytes()
        assert sha(tmp_path / "a_predictions.csv") == sha(tmp_path / "b_predictions.csv")
        assert sha(tmp_path / "a_loss.csv") == sha(tmp_path / "b_loss.csv")

    def test_env_seed_fallback(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("DRIFTCAST_SEED", "3")
        a = tmp_path / "env.json"
        args = ["run", "--data", str(workdir / "data.csv"), "--model", "lasso",
                "--strategy", "baseline", "--out", str(a)]
        assert main(args) == 0
        assert load_json(a)["seed"] == 3

    def test_numeric_failure_exits_3(self, workdir, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise NonFiniteLoss("numeric blow-up")
        monkeypatch.setattr(pipeline, "run", boom)
        code = main(["run", "--data", str(workdir / "data.csv"), "--model", "mlp",
                     "--strategy", "baseline", "--out", str(tmp_path / "x.json")])
        assert code == 3

    @pytest.mark.parametrize("flag", [
        ["--train-fraction", "1.5"], ["--lags", "1,x"], ["--windows", "24,y"],
        ["--max-epochs", "0"], ["--beta", "nan"], ["--beta", "-1"]])
    def test_invalid_config_exits_2(self, workdir, tmp_path, capsys, flag):
        args = ["run", "--data", str(workdir / "data.csv"), "--model", "mlp",
                "--strategy", "retrain", "--out", str(tmp_path / "x.json"), *flag]
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("model,strategy", [
        ("lasso", "baseline"), ("lasso", "retrain"), ("mlp", "retrain")])
    def test_infinite_cell_is_a_gap(self, workdir, tmp_path, model, strategy):
        data = with_values(workdir / "data.csv", tmp_path / "inf.csv",
                           lambda i, cell: "-inf" if i == 500 else cell)
        args = ["run", "--data", str(data), "--model", model, "--strategy", strategy,
                "--max-epochs", "3", "--out", str(tmp_path / "r.json")]
        assert main(args) == 0
        assert load_json(tmp_path / "r.json")["eval"]["mae"] > 0

    def test_missing_file_exits_4(self, tmp_path):
        code = main(["run", "--data", str(tmp_path / "missing.csv"), "--model",
                     "lasso", "--strategy", "baseline",
                     "--out", str(tmp_path / "x.json")])
        assert code == 4


@pytest.fixture(scope="module")
def four_reports(workdir, tmp_path_factory):
    root = tmp_path_factory.mktemp("reports")
    for model in ("mlp", "lasso"):
        for strat in ("baseline", "retrain"):
            out = root / f"{model}_{strat}.json"
            args = ["run", "--data", str(workdir / "data.csv"), "--model", model,
                    "--strategy", strat, "--seed", "0", "--max-epochs", "40",
                    "--out", str(out)]
            assert main(args) == 0
    return root


class TestCompare:
    def test_four_row_table_and_plot(self, four_reports, tmp_path):
        out = tmp_path / "table.csv"
        plot = tmp_path / "table.svg"
        code = main(["compare", "--reports", str(four_reports / "*.json"),
                     "--out", str(out), "--plot", str(plot)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 4 rows
        svg = plot.read_text()
        assert svg.count("MAE") == 1 and svg.count("RMSE") == 1

    def test_single_report_blank_deltas(self, four_reports, tmp_path):
        out = tmp_path / "single.csv"
        code = main(["compare", "--reports", str(four_reports / "mlp_baseline.json"),
                     "--out", str(out)])
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        header = out.read_text().splitlines()[0].split(",")
        assert row[header.index("mae_reduction_rel")] == ""

    def test_mismatched_blocks_exit_2(self, workdir, four_reports, tmp_path):
        other = tmp_path / "other.json"
        args = ["run", "--data", str(workdir / "flat.csv"), "--model", "lasso",
                "--strategy", "baseline", "--seed", "0", "--out", str(other)]
        assert main(args) == 0
        code = main(["compare", "--reports", str(four_reports / "*.json"), str(other),
                     "--out", str(tmp_path / "bad.csv")])
        assert code == 2


class TestPlot:
    def test_series_with_segmentation(self, workdir, tmp_path):
        seg = tmp_path / "seg.json"
        assert main(["detect", "--data", str(workdir / "data.csv"),
                     "--out", str(seg)]) == 0
        out = tmp_path / "series.svg"
        code = main(["plot", "--kind", "series", "--data", str(workdir / "data.csv"),
                     "--segmentation", str(seg), "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("<svg")

    def test_predictions_loss_comparison(self, workdir, tmp_path):
        rep = tmp_path / "p.json"
        assert main(["run", "--data", str(workdir / "data.csv"), "--model", "mlp",
                     "--strategy", "baseline", "--seed", "0", "--max-epochs", "15",
                     "--out", str(rep)]) == 0
        assert main(["plot", "--kind", "predictions",
                     "--data", str(tmp_path / "p_predictions.csv"),
                     "--out", str(tmp_path / "p.svg")]) == 0
        assert main(["plot", "--kind", "loss", "--data", str(tmp_path / "p_loss.csv"),
                     "--out", str(tmp_path / "l.svg")]) == 0
        cmp_csv = tmp_path / "cmp.csv"
        assert main(["compare", "--reports", str(rep), "--out", str(cmp_csv)]) == 0
        assert main(["plot", "--kind", "comparison", "--data", str(cmp_csv),
                     "--out", str(tmp_path / "c.svg")]) == 0
