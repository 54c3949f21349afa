import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftcast
from driftcast import pipeline
from driftcast.cli import build_parser, main
from driftcast.errors import NumericError
from driftcast.frame import load_csv
from driftcast.lasso import LassoModel
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


def src_env():
    """The environment with this driftcast's source first on PYTHONPATH."""
    src = str(Path(driftcast.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def cli_process(argv, cwd):
    """Run the CLI in a fresh interpreter, so numpy's and driftcast's
    warnings reach stderr as they would for a user instead of pytest's
    warning capture."""
    return subprocess.run([sys.executable, "-m", "driftcast.cli", *argv],
                          cwd=cwd, env=src_env(), capture_output=True, text=True, timeout=120)


def assert_usage_error(argv, cwd):
    """The CLI exits 2 with one ``error:`` line and no traceback."""
    proc = cli_process(argv, cwd)
    assert proc.returncode == 2, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), proc.stderr


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

    @pytest.mark.parametrize("change", [
        {"seed": "x"}, {"seed": 1.5}, {"seed": -1}, {"noise_std": "a"},
        {"noise_std": float("nan")}, {"base_level": "x"}, {"base_level": 10 ** 400},
        {"daily_amplitude": None}, {"start": [1]},
        {"events": [{"kind": "sudden", "at": "2020-02-01T00:00", "jump": "x"}]},
        {"events": [{"kind": "gradual", "at": "2020-02-01T00:00", "duration_hours": "x"}]},
        {"sede": 3}, {"events": [{"kind": "sudden", "at": "2020-02-01T00:00", "jmp": 1}]},
    ], ids=["seed_text", "seed_fraction", "seed_negative", "noise_text", "noise_nan",
            "level_text", "level_huge", "amplitude_null", "start_list", "jump_text",
            "duration_text", "unknown_key", "unknown_event_key"])
    def test_bad_config_value_exits_2(self, tmp_path, change):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(STATIONARY_CONFIG, **change)), encoding="utf-8")
        assert_usage_error(["synth", "--config", str(cfg), "--out", "x.csv"], tmp_path)
        assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_exits_2(self, tmp_path):
        assert_usage_error(["synth", "--seed", "-1", "--out", "x.csv"], tmp_path)


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

    def test_columns_never_reads_unlisted_columns(self, workdir, tmp_path):
        lines = (workdir / "data.csv").read_text(encoding="utf-8").splitlines()
        junk = tmp_path / "junk.csv"
        junk.write_text("\n".join([lines[0] + ",junk"] + [f"{line},NaN" for line in lines[1:]])
                        + "\n", encoding="utf-8")
        outs = []
        for data in (workdir / "data.csv", junk):
            outs.append(tmp_path / f"{data.stem}.json")
            assert main(["detect", "--data", str(data), "--columns", "interest_rate",
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert load_json(outs[0])["changepoints"]

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

    @pytest.mark.parametrize("argv", [
        ["detect"], ["detect", "--columns", "interest_rate"],
        ["run", "--model", "lasso", "--strategy", "baseline"]])
    def test_overflow_prints_one_error_line(self, workdir, tmp_path, argv):
        data = with_values(workdir / "data.csv", tmp_path / "huge.csv",
                           lambda i, cell: "1e200" if i % 2 else "-1e200")
        proc = cli_process([argv[0], "--data", str(data), *argv[1:],
                            "--out", str(tmp_path / "out.json")], tmp_path)
        assert proc.returncode == 3
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), proc.stderr

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

    def test_warning_prints_one_line(self, tmp_path):
        # a step four hours before the 80% split (row 3494 of 4368) leaves
        # no training row whose feature window clears it: PostDriftTooShort
        cfg = tmp_path / "late_step.json"
        cfg.write_text(json.dumps(dict(STATIONARY_CONFIG, seed=1, events=[
            {"kind": "sudden", "at": "2020-05-25T10:00", "jump": 3.0}])), encoding="utf-8")
        data = tmp_path / "late_step.csv"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        proc = cli_process(["run", "--data", str(data), "--model", "lasso",
                            "--strategy", "retrain", "--out", str(tmp_path / "r.json")],
                           tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert load_json(tmp_path / "r.json")["fallback_reason"] == "post_drift_too_short"
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: post-drift segment has "), \
            proc.stderr

    def test_mlp_emits_loss_artifacts(self, workdir, tmp_path):
        out = tmp_path / "m.json"
        assert self.run_one(workdir, out, "mlp", "baseline") == 0
        assert (tmp_path / "m_loss.csv").read_text().startswith("epoch,")

    def test_byte_identical_reruns(self, workdir, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert self.run_one(workdir, a, "mlp", "retrain", seed=3) == 0
        assert self.run_one(workdir, b, "mlp", "retrain", seed=3) == 0
        assert a.read_bytes() == b.read_bytes()
        assert sha(tmp_path / "a_predictions.csv") == sha(tmp_path / "b_predictions.csv")
        assert sha(tmp_path / "a_loss.csv") == sha(tmp_path / "b_loss.csv")

    # sha256 of the report, ``_predictions.csv``, the family's side CSV and
    # the ``--model-out`` dump at ``--max-epochs 3``, seed 0, on the workdir
    # data. Recorded with numpy 2.4.6 on x86-64; a moved or rewritten
    # artifact writer that changes a byte shows up here.
    ARTIFACT_SHA = {
        ("mlp", "baseline"): (
            "2150de5630d361c57919947a45af8e79b0e84563f6bc452a5c1b9f1e622d763a",
            "1b623f5ff6a53ad7dd209921f3d3240927caa5ff80f37773e8105e6de7de0b8b",
            "a65b0f4b54caa295181877deb2639144ff33f06edc94129fa52ce4a51938aac4",
            "893e14177eede24db8816df9c989643b72eee6f2bb69e2ecf5ecc46ffb046375",
        ),
        ("mlp", "retrain"): (
            "6c247eefe7df0029cad94663903ef59e18480f38cc8895144cd3924ce943ee10",
            "d058089beb98b0156a077310e04da8695826b34f99d307ec3bf31dff8f5a5167",
            "79ce937774b07cbddd04a7758552365026a91727433f5390b9271ca4fdebe42a",
            "249808ae9dea9c91f9b0f9062cafa749d16c5d04c8d3e34fff51324afd6817df",
        ),
        ("lasso", "baseline"): (
            "e38d190451cad49e80a54665de90af283d2790f7958513dbd2001bd8f75563c7",
            "0f5d6abb83f3734f87f28860f51cd28779ce22312528b8794d98d9b36fa44cd1",
            "29ed8c7150900a9c89d1b17ddef3becacfee04a59417083fbb19b60d344af04b",
            "20400f8fa16780427e8270985f3f24645abe55993ca2b26309425c17779d5a8a",
        ),
        ("lasso", "retrain"): (
            "946511e00c206ab701b459b8eb679ed6fcb689bd4d26a9b12c255ec0b5a9cbd5",
            "c2fe1a91be3f8cb3acbe8a924e8c0d2fa0610885b49f5a3df4b83952ecc3d566",
            "5f20e1e6e3cb5d5ef7987cae4efe5144f554f466a97de571bb8dfc57ad9644d0",
            "a83a411c8a441939b7270963cd8c23702942ba3a9cff57b5e1d3d39fd27eb4b8",
        ),
    }

    @pytest.mark.parametrize("model,strategy", sorted(ARTIFACT_SHA))
    def test_artifact_bytes_pinned(self, workdir, tmp_path, model, strategy):
        side = {"mlp": "r_loss.csv", "lasso": "r_cv.csv"}[model]
        args = ["run", "--data", str(workdir / "data.csv"), "--model", model,
                "--strategy", strategy, "--seed", "0", "--max-epochs", "3",
                "--out", str(tmp_path / "r.json"),
                "--model-out", str(tmp_path / "model.json")]
        assert main(args) == 0
        digests = tuple(sha(tmp_path / name) for name in
                        ("r.json", "r_predictions.csv", side, "model.json"))
        assert digests == self.ARTIFACT_SHA[model, strategy]

    def test_env_seed_fallback(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("DRIFTCAST_SEED", "3")
        a = tmp_path / "env.json"
        args = ["run", "--data", str(workdir / "data.csv"), "--model", "lasso",
                "--strategy", "baseline", "--out", str(a)]
        assert main(args) == 0
        assert load_json(a)["seed"] == 3

    def test_bad_env_seed_exits_2(self, workdir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DRIFTCAST_SEED", "abc")
        out = tmp_path / "env.json"
        args = ["run", "--data", str(workdir / "data.csv"), "--model", "lasso",
                "--strategy", "baseline", "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: DRIFTCAST_SEED must be an integer, got 'abc'"]
        assert not out.exists()

    def test_numeric_failure_exits_3(self, workdir, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise NumericError("numeric blow-up")
        monkeypatch.setattr(pipeline, "run", boom)
        code = main(["run", "--data", str(workdir / "data.csv"), "--model", "mlp",
                     "--strategy", "baseline", "--out", str(tmp_path / "x.json")])
        assert code == 3

    @pytest.mark.parametrize("flag", [
        ["--train-fraction", "1.5"], ["--lags", "1,x"], ["--windows", "24,y"],
        ["--max-epochs", "0"], ["--beta", "nan"], ["--beta", "-1"], ["--seed", "-1"]])
    def test_invalid_config_exits_2(self, workdir, tmp_path, flag):
        assert_usage_error(["run", "--data", str(workdir / "data.csv"), "--model", "mlp",
                            "--strategy", "retrain", "--out", "x.json", *flag], tmp_path)
        assert not (tmp_path / "x.json").exists()

    def test_unknown_detect_column_exits_2(self, workdir, tmp_path, capsys):
        out = tmp_path / "x.json"
        args = ["run", "--data", str(workdir / "data.csv"), "--model", "lasso",
                "--strategy", "retrain", "--detect-columns", "lag_1,bogus",
                "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: no feature column named 'bogus' to detect on"]
        assert not out.exists()

    @pytest.mark.parametrize("model,strategy", [
        ("lasso", "baseline"), ("lasso", "retrain"), ("mlp", "retrain")])
    def test_infinite_cell_is_a_gap(self, workdir, tmp_path, model, strategy):
        data = with_values(workdir / "data.csv", tmp_path / "inf.csv",
                           lambda i, cell: "-inf" if i == 500 else cell)
        args = ["run", "--data", str(data), "--model", model, "--strategy", strategy,
                "--max-epochs", "3", "--out", str(tmp_path / "r.json")]
        assert main(args) == 0
        assert load_json(tmp_path / "r.json")["eval"]["mae"] > 0

    def test_original_scale_changes_only_the_error_units(self, workdir, tmp_path):
        # README: R² is identical under both scales; MAE and RMSE scale by the
        # training-block target's std, and the predictions do not change
        std, orig = tmp_path / "std.json", tmp_path / "orig.json"
        assert self.run_one(workdir, std, "lasso", "baseline", seed=42) == 0
        assert self.run_one(workdir, orig, "lasso", "baseline", seed=42,
                            extra=["--scale", "original"]) == 0
        a, b = load_json(std)["eval"], load_json(orig)["eval"]
        assert (a["scale"], b["scale"]) == ("standardized", "original")
        y = load_csv(workdir / "data.csv").column("interest_rate")
        train_std = np.std(y[168:int(0.8 * y.size)])  # feature rows start after the warmup
        assert b["r2"] == pytest.approx(a["r2"], rel=1e-12)
        assert b["mae"] / a["mae"] == pytest.approx(train_std, rel=1e-12)
        assert b["rmse"] / a["rmse"] == pytest.approx(train_std, rel=1e-12)
        assert sha(tmp_path / "std_predictions.csv") == sha(tmp_path / "orig_predictions.csv")

    def test_missing_file_exits_4(self, tmp_path):
        code = main(["run", "--data", str(tmp_path / "missing.csv"), "--model",
                     "lasso", "--strategy", "baseline",
                     "--out", str(tmp_path / "x.json")])
        assert code == 4


class TestTraceContract:
    """perfbench's traced run wraps pipeline and lasso globals by name; a
    refactor that bypasses them leaves layers unmeasured."""

    PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
    EXPECTED = {
        "mlp": {"mlp.mlp_train": 1, "mlp.mlp_predict": 1},
        "lasso": {"lasso.lasso_cv": 1, "lasso.lasso_fit": 21},
    }

    @pytest.mark.parametrize("model", sorted(EXPECTED))
    def test_traced_retrain_spans(self, workdir, tmp_path, model):
        result = tmp_path / "RESULT.json"
        proc = subprocess.run(
            [sys.executable, str(self.PERFBENCH / "child.py"), str(result), "1", "run",
             "--data", str(workdir / "data.csv"), "--model", model,
             "--strategy", "retrain", "--seed", "0", "--max-epochs", "3",
             "--out", str(tmp_path / "r.json")],
            cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(result.read_text(encoding="utf-8"))
        assert record["code"] == 0
        names = [span["name"] for span in record["spans"]]
        expected = dict(self.EXPECTED[model], **{"pipeline.detect_training_drift": 1})
        assert {name: names.count(name) for name in expected} == expected


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
        replot = tmp_path / "replot.svg"
        assert main(["plot", "--kind", "comparison", "--data", str(out),
                     "--out", str(replot)]) == 0
        assert replot.read_bytes() == plot.read_bytes()

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


# sha256 of the workdir's synth CSV and sidecar, of ``detect``'s default
# segmentation of it and of ``compare`` over the four reports. Recorded
# with numpy 2.4.6 on x86-64; these writers' bytes must not move.
WORKDIR_SHA = {
    "data.csv": "c7e1687f6f695455381794b12c88c20e32ecc911964777e4dfa3121b098f8af1",
    "data.csv.meta.json": "247f1e63ed34ce747ebe3081bc335b611910199e143a887798ed8db544805d44",
    "seg.json": "cbf9262bcf17775e9e95e0a4079acf4131d30a33bc1b8d2b5c4206e0418f6fa1",
    "comparison.csv": "aa8967d62dd8a4c51b24877ddbd0d10a2bbda79fa6c5c84d7936cc4eef09878d",
}


def test_workdir_bytes_pinned(workdir, four_reports, tmp_path):
    assert main(["detect", "--data", str(workdir / "data.csv"),
                 "--out", str(tmp_path / "seg.json")]) == 0
    assert main(["compare", "--reports", str(four_reports / "*.json"),
                 "--out", str(tmp_path / "comparison.csv")]) == 0
    paths = {"data.csv": workdir / "data.csv",
             "data.csv.meta.json": workdir / "data.csv.meta.json",
             "seg.json": tmp_path / "seg.json",
             "comparison.csv": tmp_path / "comparison.csv"}
    assert {name: sha(path) for name, path in paths.items()} == WORKDIR_SHA


def test_every_csv_kind_shares_one_format(workdir, four_reports, tmp_path):
    """The synth CSV, ``compare``'s table and every CSV ``run`` writes end
    their lines in CRLF and write each number in the 17-digit float text."""
    assert main(["compare", "--reports", str(four_reports / "*.json"),
                 "--out", str(tmp_path / "comparison.csv")]) == 0
    paths = [workdir / "data.csv", tmp_path / "comparison.csv",
             *sorted(four_reports.glob("*.csv"))]
    assert {p.name.rsplit("_", 1)[-1] for p in paths} == {
        "data.csv", "comparison.csv", "predictions.csv", "loss.csv", "cv.csv"}
    for path in paths:
        raw = path.read_bytes()
        assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n"), path.name
        for line in raw.decode("utf-8").split("\r\n")[1:-1]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a timestamp, a name or an empty cell
                assert cell == format(value, ".17g"), (path.name, line)


class TestPlot:
    def test_series_with_segmentation(self, workdir, tmp_path):
        # a block of missing hours: plot must place the markers on the same
        # hourly grid detect found them on
        lines = (workdir / "data.csv").read_text(encoding="utf-8").splitlines()
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("\n".join(lines[:1000] + lines[1500:]) + "\n", encoding="utf-8")
        for data in (workdir / "data.csv", gapped):
            seg, drawn = tmp_path / f"{data.stem}.json", tmp_path / f"{data.stem}.svg"
            assert main(["detect", "--data", str(data), "--out", str(seg),
                         "--plot", str(drawn)]) == 0
            assert load_json(seg)["changepoints"]
            out = tmp_path / f"{data.stem}_replot.svg"
            assert main(["plot", "--kind", "series", "--data", str(data),
                         "--segmentation", str(seg), "--out", str(out)]) == 0
            assert out.read_bytes() == drawn.read_bytes()

    def test_cv_with_infinite_mse(self, tmp_path):
        model = LassoModel(np.zeros(1), 0.0, 0.1, np.zeros(1), np.ones(1), cv_results=[
            (0.01, 0, 1.0), (0.01, 1, math.inf), (0.1, 0, 2.0), (0.1, 1, 3.0)])
        model.cv_to_csv(tmp_path / "cv.csv")
        assert (tmp_path / "cv.csv").read_text(encoding="utf-8").splitlines()[2] == "0.01,1,inf"
        assert main(["plot", "--kind", "cv", "--data", str(tmp_path / "cv.csv"),
                     "--out", str(tmp_path / "cv.svg")]) == 0
        assert (tmp_path / "cv.svg").read_text(encoding="utf-8").startswith("<svg")

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


@pytest.fixture(scope="module")
def wrong_files(workdir, tmp_path_factory):
    """Files of the wrong kind for the commands that read them."""
    root = tmp_path_factory.mktemp("wrong")
    assert main(["detect", "--data", str(workdir / "data.csv"),
                 "--out", str(root / "seg.json")]) == 0
    (root / "text.json").write_text("not json\n", encoding="utf-8")
    (root / "kind.json").write_text(json.dumps(dict(STATIONARY_CONFIG, events=[
        {"kind": "bogus", "at": "2020-02-01T00:00"}])), encoding="utf-8")
    (root / "list.json").write_text("[1, 2]\n", encoding="utf-8")
    (root / "bad_mae.json").write_text(json.dumps(
        {"eval": {"mae": "x", "rmse": 1.0, "r2": 0.0, "n": 3}, "training_rows_used": 5}),
        encoding="utf-8")
    for name, provenance in [("model_list", {"model": ["mlp"], "strategy": "baseline"}),
                             ("strategy_number", {"model": "mlp", "strategy": 1})]:
        (root / f"{name}.json").write_text(json.dumps(
            {"eval": {"mae": 1.0, "rmse": 1.0, "r2": 0.0, "n": 3, "provenance": provenance},
             "training_rows_used": 5}), encoding="utf-8")
    (root / "cv_text.csv").write_text("alpha,fold,val_mse\nx,0,1.0\n", encoding="utf-8")
    (root / "cv_long.csv").write_text("alpha,fold,val_mse\n0.1,0,1.0,9\n", encoding="utf-8")
    (root / "cmp_short.csv").write_text("model,strategy,mae,rmse,r2\nmlp,baseline,1.0\n",
                                        encoding="utf-8")
    (root / "latin1.csv").write_bytes(b"timestamp,interest_rate\n2020-01-01T00:00,caf\xe9\n")
    (root / "short_row.csv").write_text("v,timestamp\n1.0,2020-01-01T00:00\n2.0\n",
                                        encoding="utf-8")
    seg = load_json(root / "seg.json")
    for name, change in BAD_SEGMENTATIONS.items():
        (root / f"{name}.json").write_text(json.dumps(dict(seg, **change)), encoding="utf-8")
    return root


# well-formed segmentations of the series in data.csv that no detector can return
BAD_SEGMENTATIONS = {
    "changepoint_negative": {"changepoints": [-5]},
    "changepoints_reversed": {"changepoints": [200, 100]},
    "changepoint_at_zero": {"changepoints": [0]},
    "changepoint_past_end": {"changepoints": [40000]},
    "cost_model_unknown": {"cost_model": "bogus"},
    "n_not_the_series": {"n": 40000},
}


@pytest.mark.parametrize("argv", [
    ["compare", "--reports", "{wrong}/seg.json"],
    ["compare", "--reports", "{wrong}/text.json"],
    ["plot", "--kind", "series", "--data", "{data}", "--segmentation", "{wrong}/text.json",
     "--out", "s.svg"],
    ["synth", "--config", "{wrong}/kind.json"],
    ["synth", "--config", "{wrong}/list.json"],
    ["plot", "--kind", "cv", "--data", "{data}", "--out", "cv.svg"],
    ["plot", "--kind", "series", "--data", "{data}", "--segmentation", "{wrong}/list.json",
     "--out", "s.svg"],
    ["compare", "--reports", "{wrong}/bad_mae.json"],
    ["compare", "--reports", "{wrong}/model_list.json"],
    ["compare", "--reports", "{wrong}/strategy_number.json"],
    ["plot", "--kind", "cv", "--data", "{wrong}/cv_text.csv", "--out", "cv.svg"],
    ["plot", "--kind", "cv", "--data", "{wrong}/latin1.csv", "--out", "cv.svg"],
    ["plot", "--kind", "cv", "--data", "{wrong}/cv_long.csv", "--out", "cv.svg"],
    ["plot", "--kind", "comparison", "--data", "{wrong}/cmp_short.csv", "--out", "c.svg"],
    ["detect", "--data", "{wrong}/latin1.csv"],
    ["run", "--data", "{wrong}/latin1.csv", "--model", "lasso", "--strategy", "baseline"],
    ["plot", "--kind", "series", "--data", "{wrong}/latin1.csv", "--out", "s.svg"],
    ["detect", "--data", "{wrong}/short_row.csv", "--target", "v"],
    *(["plot", "--kind", "series", "--data", "{data}", "--segmentation",
       f"{{wrong}}/{name}.json", "--out", "s.svg"] for name in BAD_SEGMENTATIONS),
], ids=["segmentation_as_report", "text_as_report", "text_as_segmentation",
        "unknown_event_kind", "config_not_an_object", "series_as_cv_table",
        "list_as_segmentation", "text_metric_in_report", "model_list_in_report",
        "strategy_number_in_report", "text_in_cv_table",
        "latin1_cv_table", "cv_row_too_long", "comparison_row_too_short",
        "latin1_data_detect", "latin1_data_run", "latin1_data_plot", "row_without_timestamp",
        *BAD_SEGMENTATIONS])
def test_wrong_file_exits_2(workdir, wrong_files, tmp_path, argv):
    argv = [a.format(wrong=wrong_files, data=workdir / "data.csv") for a in argv]
    assert_usage_error(argv, tmp_path)


@pytest.mark.parametrize("kind,header", [
    ("series", "timestamp,interest_rate"), ("predictions", "timestamp,actual,predicted"),
    ("loss", "epoch,train_loss,val_loss"), ("cv", "alpha,fold,val_mse"),
    ("comparison", "model,strategy,mae,rmse,r2")],
    ids=["series", "predictions", "loss", "cv", "comparison"])
def test_plot_of_a_table_without_rows_exits_2(tmp_path, capsys, kind, header):
    data = tmp_path / f"{kind}.csv"
    data.write_text(header + "\n", encoding="utf-8")
    assert main(["plot", "--kind", kind, "--data", str(data),
                 "--out", str(tmp_path / "x.svg")]) == 2
    assert capsys.readouterr().err == f"error: {data}: no data rows\n"


def test_plot_leaves_out_points_with_a_non_finite_x(tmp_path):
    # alpha <= 0 has no log10: those points are missing, not drawn at nan
    data = tmp_path / "cv.csv"
    data.write_text("alpha,fold,val_mse\n" + "".join(
        f"{alpha},{fold},{1.0 + alpha + fold}\n"
        for alpha in (-1.0, 0.0, 0.01, 0.1, 1.0) for fold in (0, 1)), encoding="utf-8")
    out = tmp_path / "cv.svg"
    assert main(["plot", "--kind", "cv", "--data", str(data), "--out", str(out)]) == 0
    svg = out.read_text(encoding="utf-8")
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<polyline") == 3
    assert all(len(line.split('points="')[1].split('"')[0].split()) == 3
               for line in svg.splitlines() if line.startswith("<polyline"))


def test_readme_commands_parse():
    """Every ``driftcast`` command in README's code blocks is one the parser
    accepts, so deleting a flag cannot leave the quick start broken."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```")[1::2]
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("driftcast ")]
    assert len(commands) >= 7
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command, comments=True)[1:])
