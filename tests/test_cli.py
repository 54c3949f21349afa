import ast
import hashlib
import json
import math
import os
import resource
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import driftcast
from driftcast import pipeline
from driftcast.cli import _strategy_config, build_parser, main
from driftcast.errors import NumericError
from driftcast.frame import Scaler, load_csv
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

# the least a run report holds for ``compare`` to read it
MINIMAL_REPORT = {
    "eval": {"mae": 1.0, "rmse": 1.0, "r2": 0.0, "n": 3},
    "segmentation": None,
    "training_rows_used": 5,
    "config": {"strategy": "baseline", "model": "mlp", "seed": 0},
    "test_sha256": "",
    "test_target_sha256": "0" * 64,
    "dataset_sha256": "",
    "fallback_reason": None,
}


def with_config(**change):
    return dict(MINIMAL_REPORT, config=dict(MINIMAL_REPORT["config"], **change))


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def src_env():
    """The environment with this driftcast's source first on PYTHONPATH."""
    src = str(Path(driftcast.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def cli_process(argv, cwd, max_bytes=None, **env):
    """Run the CLI in a fresh interpreter, so numpy's and driftcast's
    warnings reach stderr as they would for a user instead of pytest's
    warning capture. ``max_bytes`` caps the child's address space, so a
    command that tries a huge allocation fails at once instead of paging;
    ``env`` sets variables in the child's environment."""
    cap = None if max_bytes is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes)))
    return subprocess.run([sys.executable, "-m", "driftcast.cli", *argv], preexec_fn=cap,
                          cwd=cwd, env=dict(src_env(), **env), capture_output=True,
                          text=True, timeout=120)


def assert_usage_error(argv, cwd, max_bytes=None):
    """The CLI exits 2 with one ``error:`` line and no traceback."""
    proc = cli_process(argv, cwd, max_bytes)
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
        {"end": 1e15}, {"end": 1e30},
        {"start": "0001-01-01T00:00", "end": "9999-12-31T23:00"},
    ], ids=["seed_text", "seed_fraction", "seed_negative", "noise_text", "noise_nan",
            "level_text", "level_huge", "amplitude_null", "start_list", "jump_text",
            "duration_text", "unknown_key", "unknown_event_key", "end_past_9999",
            "end_huge", "years_1_to_9999"])
    def test_bad_config_value_exits_2(self, tmp_path, change):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(STATIONARY_CONFIG, **change)), encoding="utf-8")
        # an end far past year 9999, or a span too long for any hourly axis,
        # must be refused before the axis (terabytes for 1e15, 669 MiB for
        # years 1 to 9999) is allocated
        assert_usage_error(["synth", "--config", str(cfg), "--out", "x.csv"], tmp_path,
                           max_bytes=2 << 30)
        assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_exits_2(self, tmp_path):
        assert_usage_error(["synth", "--seed", "-1", "--out", "x.csv"], tmp_path)

    @pytest.mark.parametrize("config,message", [
        ([1, 2], "a synth config is an object, and each of its events needs kind and at"),
        (dict(STATIONARY_CONFIG, bogus=1), "unknown synth config key 'bogus'"),
        (dict(STATIONARY_CONFIG, noise_std="a"), "noise_std must be a finite number, got 'a'"),
    ], ids=["list", "unknown_key", "bad_value"])
    def test_config_errors_name_the_file(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not (tmp_path / "x.csv").exists()


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

    @pytest.mark.parametrize("edit", [
        lambda i, line: line + "," if i == 0 else line,
        lambda i, line: line + ",",
        lambda i, line: line.replace(",", ", ," if i == 0 else ",x,"),
    ], ids=["trailing_in_header", "trailing_in_every_line", "blank_in_the_middle"])
    def test_unnamed_header_column_is_skipped(self, workdir, tmp_path, edit):
        """A header cell that is blank after stripping names no column: it
        and its cells are skipped, and the rest reads as without it."""
        lines = (workdir / "data.csv").read_text(encoding="utf-8").splitlines()
        padded = tmp_path / "padded.csv"
        padded.write_text("\n".join(edit(i, line) for i, line in enumerate(lines)) + "\n",
                          encoding="utf-8")
        for data in (workdir / "data.csv", padded):
            assert main(["detect", "--data", str(data),
                         "--out", str(tmp_path / f"{data.stem}.json")]) == 0
        assert (tmp_path / "padded.json").read_bytes() == (tmp_path / "data.json").read_bytes()

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

    @pytest.mark.parametrize("cost", ["l2_mean", "gaussian_nll"])
    def test_overflowing_segment_costs_exit_3(self, workdir, tmp_path, capsys, cost):
        # the sum of squares is finite, about 9e306, but n times it is not
        data = with_values(workdir / "data.csv", tmp_path / "huge.csv",
                           lambda i, cell: repr(float(cell) * 1e151))
        out = tmp_path / "s.json"
        assert main(["detect", "--data", str(data), "--cost", cost, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: series too large: its sum of squares overflows\n"
        assert not out.exists()

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
    # data. Recorded with numpy 2.4.6 on x86-64, and again, with the same
    # values, when floats took their shortest round-trip text; the lasso's
    # again when its predictions summed each row in an order that ignores
    # the BLAS thread count. A moved or rewritten artifact writer that
    # changes a byte shows up here.
    ARTIFACT_SHA = {
        ("mlp", "baseline"): (
            "8de929637906c20e846adf4c6a5aecc9d303ab69c6374e14ed1fc1917f43f171",
            "5f9d120ae9f1bc07985623196832c25a329566d25b73c3431a62754158a692cc",
            "f1089c37a1c6b7fb90b6f64a5fb629d21a743724252d0a1e691801e8d9d93e52",
            "352cc3f0143bcce6dbdf80ae79768e877c5644b67562ddeb4a1bdada0d7263b3",
        ),
        ("mlp", "retrain"): (
            "2448e8b5794d1ac137744436fdd71d3fa5ffd6f35dc92218c10fe92cfb942d61",
            "901fbf2b177bb8bb8d501c4459f408ecc21aca3821f511b9c29bc75854620c7f",
            "00da8803daff0c655fb85277f28aba3af08e08b7157bf07b9db4c358e9fda85a",
            "0179ad3e3c899b4738dd2597a7108227e5b827e2a0151f40307a8797afcf417f",
        ),
        ("lasso", "baseline"): (
            "9e0232b155d2c7c343844a746dd4afcbc6bd1cadc5cecbff46bd2d32c07823bd",
            "48933fcfa5038547c5c6e62fdb21b0f806a61ec38e449262008c87670dbd8e5d",
            "66ffe8cb368179f5cc1cd875be03d4dda107b852a9706a146dbd394515ca1e3c",
            "586c9ba8eb5fa9f06eb6aa8a675d65ea085dac3760c7fab087a77ef54f360f3d",
        ),
        ("lasso", "retrain"): (
            "64568fd9ca3d0cab14a05ce4e51a09a36e66b706745c24a9b6777cb4989055fc",
            "7785e676f0681d358e3f385fcbf835f2588f24e6098102f7296327d21c023deb",
            "7bfe3a5f46082b3137205c3273d6eae5a8c51ad480adb7cd17c994c1677032d4",
            "bced303557ee29ad594620f5abd500b63b15cca729858a13a2c48200ffb65d1c",
        ),
    }

    @staticmethod
    def pinned_run(workdir, tmp_path, model, strategy):
        """The argv of an ``ARTIFACT_SHA`` run, and its artifacts' paths."""
        side = {"mlp": "r_loss.csv", "lasso": "r_cv.csv"}[model]
        args = ["run", "--data", str(workdir / "data.csv"), "--model", model,
                "--strategy", strategy, "--seed", "0", "--max-epochs", "3",
                "--out", str(tmp_path / "r.json"),
                "--model-out", str(tmp_path / "model.json")]
        return args, [tmp_path / name for name in ("r.json", "r_predictions.csv", side,
                                                   "model.json")]

    @pytest.mark.parametrize("model,strategy", sorted(ARTIFACT_SHA))
    def test_artifact_bytes_pinned(self, workdir, tmp_path, model, strategy):
        args, paths = self.pinned_run(workdir, tmp_path, model, strategy)
        assert main(args) == 0
        assert tuple(sha(path) for path in paths) == self.ARTIFACT_SHA[model, strategy]

    def test_artifact_bytes_do_not_depend_on_the_environment(self, workdir, tmp_path):
        # two BLAS threads and another hash seed, set before numpy loads
        for model in ("lasso", "mlp"):
            args, paths = self.pinned_run(workdir, tmp_path, model, "retrain")
            proc = cli_process(args, tmp_path, OPENBLAS_NUM_THREADS="2", PYTHONHASHSEED="3")
            assert proc.returncode == 0, proc.stderr
            assert tuple(sha(path) for path in paths) == self.ARTIFACT_SHA[model, "retrain"]

    # a full-length synth series on which a lasso prediction from a BLAS
    # matrix-vector product moved in its last digit between 1 and 2 threads
    ENVIRONMENT_SERIES_SEED = "577090037"

    def test_degree_two_artifacts_do_not_depend_on_the_environment(self, tmp_path):
        """A degree-2 run of each family writes the same bytes under 1 and
        2 BLAS threads and under two hash seeds. Each environment after the
        first changes one variable, so a failure names it."""
        data = tmp_path / "series.csv"
        assert main(["synth", "--seed", self.ENVIRONMENT_SERIES_SEED,
                     "--out", str(data)]) == 0
        environments = [{"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "1"},
                        {"OPENBLAS_NUM_THREADS": "2", "PYTHONHASHSEED": "1"},
                        {"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "2"}]
        for model, extra in (("lasso", []), ("mlp", ["--max-epochs", "5"])):
            digests = []
            for env in environments:
                out = tmp_path / f"{model}_{len(digests)}"
                out.mkdir()
                argv = ["run", "--data", str(data), "--model", model, "--strategy",
                        "baseline", "--poly-degree", "2", *extra, "--out", "r.json",
                        "--model-out", "model.json"]
                proc = cli_process(argv, out, **env)
                assert proc.returncode == 0, proc.stderr
                digests.append({path.name: sha(path) for path in sorted(out.iterdir())})
            assert len(digests[0]) == 4
            for env, got in zip(environments[1:], digests[1:]):
                assert got == digests[0], (model, env)

    def test_seed_defaults_to_0_whatever_the_environment(self, workdir, tmp_path,
                                                          monkeypatch):
        monkeypatch.setenv("DRIFTCAST_SEED", "3")
        out = tmp_path / "env.json"
        args = ["run", "--data", str(workdir / "data.csv"), "--model", "lasso",
                "--strategy", "baseline", "--out", str(out)]
        assert main(args) == 0
        assert load_json(out)["config"]["seed"] == 0

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
        scales = [load_json(path)["config"]["metric_scale"] for path in (std, orig)]
        assert scales == ["standardized", "original"]
        a, b = load_json(std)["eval"], load_json(orig)["eval"]
        y = load_csv(workdir / "data.csv").column("interest_rate")
        train_std = np.std(y[168:int(0.8 * y.size)])  # feature rows start after the warmup
        assert b["r2"] == pytest.approx(a["r2"], rel=1e-12)
        assert b["mae"] / a["mae"] == pytest.approx(train_std, rel=1e-12)
        assert b["rmse"] / a["rmse"] == pytest.approx(train_std, rel=1e-12)
        assert sha(tmp_path / "std_predictions.csv") == sha(tmp_path / "orig_predictions.csv")

    @pytest.mark.parametrize("degree", ["1", "2"])
    def test_non_finite_scores_exit_3(self, workdir, tmp_path, capsys, degree):
        # one huge cell in the test block, which no fit or scaler sees
        data = with_values(workdir / "data.csv", tmp_path / "huge.csv",
                           lambda i, cell: "1e200" if i == 4300 else cell)
        out = tmp_path / "r.json"
        assert main(["run", "--data", str(data), "--model", "lasso", "--strategy", "baseline",
                     "--poly-degree", degree, "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: test-block scores are not finite: ")
        assert list(tmp_path.iterdir()) == [data]

    def test_missing_file_exits_4(self, tmp_path):
        code = main(["run", "--data", str(tmp_path / "missing.csv"), "--model",
                     "lasso", "--strategy", "baseline",
                     "--out", str(tmp_path / "x.json")])
        assert code == 4

    @pytest.mark.parametrize("strategy", [pipeline.BASELINE, pipeline.DRIFT_RETRAIN])
    @pytest.mark.parametrize("model", pipeline.FAMILIES)
    def test_defaults_are_the_library_defaults(self, model, strategy):
        args = build_parser().parse_args(["run", "--data", "d.csv", "--model", model,
                                          "--strategy", strategy])
        assert _strategy_config(args) == pipeline.StrategyConfig(
            strategy=strategy, model=model, dataset_id="d.csv")


def test_timestamp_column_names_the_time_header(workdir, tmp_path):
    """Under ``--timestamp-column time`` a series whose time header is
    ``time`` gives every artifact of the same series headed ``timestamp``."""
    lines = (workdir / "data.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "timestamp,interest_rate"
    renamed = tmp_path / "time.csv"
    renamed.write_text("\n".join(["time,interest_rate", *lines[1:]]) + "\n", encoding="utf-8")
    assert main(["detect", "--data", str(renamed), "--out", str(tmp_path / "x.json")]) == 2
    outputs = []
    for data, flag in [(workdir / "data.csv", []), (renamed, ["--timestamp-column", "time"])]:
        out = tmp_path / data.stem
        out.mkdir()
        for argv in (
                ["detect", "--data", str(data), "--out", str(out / "seg.json")],
                ["run", "--data", str(data), "--model", "lasso", "--strategy", "retrain",
                 "--out", str(out / "r.json")],
                ["plot", "--kind", "series", "--data", str(data),
                 "--segmentation", str(out / "seg.json"), "--out", str(out / "series.svg")]):
            assert main([*argv, *flag]) == 0
        assert main(["plot", "--kind", "predictions", "--data", str(out / "r_predictions.csv"),
                     "--out", str(out / "predictions.svg")]) == 0
        outputs.append([load_json(out / "r.json")["eval"], *(
            (out / name).read_bytes()
            for name in ("seg.json", "r_predictions.csv", "series.svg", "predictions.svg"))])
    assert outputs[0] == outputs[1]


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

    def test_mixed_metric_scales_exit_2(self, workdir, four_reports, tmp_path, capsys):
        # the test block hashes alike on either scale, so only the config
        # tells an original-unit baseline from a standardized retrain
        original = tmp_path / "lasso_baseline.json"
        assert main(["run", "--data", str(workdir / "data.csv"), "--model", "lasso",
                     "--strategy", "baseline", "--seed", "0", "--scale", "original",
                     "--out", str(original)]) == 0
        capsys.readouterr()
        out = tmp_path / "mixed.csv"
        assert main(["compare", "--reports", str(original),
                     str(four_reports / "lasso_retrain.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: reports use different metric scales: original, standardized"]
        assert not out.exists()


def earlier_format(report):
    """A run report in the earlier format, which stated the run's seed at
    the top level, repeated its model, strategy, dataset and scale in
    ``eval``, and gave the lasso a ``tol``."""
    config = dict(report["config"])
    if "detection" in config:
        config["detection"] = dict(config["detection"], min_size=2)
    if "lasso" in config:
        config["lasso"] = dict(config["lasso"], tol=1e-7)
    provenance = {"dataset": config["dataset_id"], "model": config["model"],
                  "strategy": config["strategy"], "seed": config["seed"]}
    seg = report["segmentation"]
    return {
        "eval": dict(report["eval"], scale=config["metric_scale"], provenance=provenance),
        "segmentation": None if seg is None else {key: seg[key] for key in (
            "n", "changepoints", "total_cost", "beta", "cost_model")},
        "training_rows_used": report["training_rows_used"],
        "config": config,
        "seed": config["seed"],
        **{key: report[key] for key in ("dataset_sha256", "test_sha256",
                                        "test_target_sha256", "fallback_reason")},
    }


def key_paths(node, at=()):
    """The path of every key in a tree of JSON objects."""
    for key, value in node.items():
        yield (*at, key)
        if isinstance(value, dict):
            yield from key_paths(value, (*at, key))


class TestReportFormat:
    RUN_NAMES = {"seed", "model", "strategy", "metric_scale", "dataset_id"}

    def test_each_fact_once(self, four_reports):
        for path in sorted(four_reports.glob("*.json")):
            report = load_json(path)
            assert list(report) == [f.name for f in fields(pipeline.RunReport)]
            assert list(report["eval"]) == ["mae", "rmse", "r2", "n"]
            # the MLP's own config also holds the seed it trained with
            named = {where for where in key_paths(report)
                     if where[-1] in self.RUN_NAMES and where[:2] != ("config", "mlp")}
            assert named == {("config", key) for key in self.RUN_NAMES}, path.name

    def test_earlier_format_still_compares(self, four_reports, tmp_path):
        for path in four_reports.glob("*.json"):
            (tmp_path / path.name).write_text(json.dumps(earlier_format(load_json(path))),
                                              encoding="utf-8")
        assert main(["compare", "--reports", str(tmp_path / "*.json"),
                     "--out", str(tmp_path / "comparison.csv")]) == 0
        assert sha(tmp_path / "comparison.csv") == WORKDIR_SHA["comparison.csv"]

    def test_minimal_report_compares(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(MINIMAL_REPORT), encoding="utf-8")
        assert main(["compare", "--reports", str(path),
                     "--out", str(tmp_path / "c.csv")]) == 0

    @pytest.mark.parametrize("retrain_mae,change", [(2.0, "+100.0%"), (0.991, "-0.9%"),
                                                    (1.0, "+0.0%")])
    def test_compare_prints_the_signed_mae_change(self, tmp_path, capsys, retrain_mae,
                                                  change):
        for strategy, mae in (("baseline", 1.0), ("retrain", retrain_mae)):
            report = with_config(strategy=strategy)
            report["eval"] = dict(report["eval"], mae=mae)
            (tmp_path / f"{strategy}.json").write_text(json.dumps(report), encoding="utf-8")
        assert main(["compare", "--reports", str(tmp_path / "*.json"),
                     "--out", str(tmp_path / "c.csv")]) == 0
        retrain_line = capsys.readouterr().out.splitlines()[1]
        assert retrain_line.endswith(f"  mae {change}  r2 +0.0000")


# sha256 of the workdir's synth CSV and sidecar, of ``detect``'s default
# segmentation of it and of ``compare`` over the four reports. Recorded
# with numpy 2.4.6 on x86-64, and again, with the same values, when floats
# took their shortest round-trip text; these writers' bytes must not move.
# ``comparison.csv`` was recorded again when lasso predictions summed each
# row in an order that ignores the BLAS thread count.
WORKDIR_SHA = {
    "data.csv": "b9181d9e117ad6f36ed351db8d29bf7039dc83d490dbf65a803e45091b964463",
    "data.csv.meta.json": "ec1e8d2f0128b68148e253ea308d46064ef6baff812a92f203fb1b45bd34e8ad",
    "seg.json": "9b7f9465d75bbc3e360496090d4b4b60853a2512f83f95033c13d071bb7ebb8d",
    "comparison.csv": "1501c26b6df30136087ebed2a5c4fda3929ea8f5da711715e5c2ff85df126122",
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
    their lines in CRLF and write each number as an integer or in the
    shortest round-trip text of a float."""
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
                if cell.lstrip("-").isdigit():
                    continue  # an integer: an epoch or a row count
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a timestamp, a name or an empty cell
                assert cell == repr(value), (path.name, line)


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
        model = LassoModel(np.zeros(1), 0.0, 0.1, Scaler(np.zeros(1), np.ones(1)), cv_results=[
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

    @pytest.mark.parametrize("kind,artifact", [("loss", "mlp_baseline_loss.csv"),
                                               ("cv", "lasso_baseline_cv.csv"),
                                               ("comparison", None)])
    def test_padded_header_draws_the_same_figure(self, four_reports, tmp_path, kind,
                                                 artifact):
        """Header names are stripped, as ``load_csv`` strips them: a header
        such as ``epoch, train_loss,val_loss`` names the same columns."""
        data = tmp_path / "data.csv"
        if artifact is None:
            assert main(["compare", "--reports", str(four_reports / "*.json"),
                         "--out", str(data)]) == 0
        else:
            data.write_bytes((four_reports / artifact).read_bytes())
        header, rest = data.read_text(encoding="utf-8").split("\n", 1)
        names = header.rstrip("\r").split(",")
        padded = tmp_path / "padded.csv"
        padded.write_text(",".join(f" {name}" if i % 2 else f"{name}\t "
                                   for i, name in enumerate(names)) + "\n" + rest,
                          encoding="utf-8")
        for path in (data, padded):
            assert main(["plot", "--kind", kind, "--data", str(path),
                         "--out", str(tmp_path / f"{path.stem}.svg")]) == 0
        assert (tmp_path / "padded.svg").read_bytes() == (tmp_path / "data.svg").read_bytes()


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
    for name, report in [
            ("bad_mae", dict(MINIMAL_REPORT, eval=dict(MINIMAL_REPORT["eval"], mae="x"))),
            ("model_list", with_config(model=["mlp"])),
            ("strategy_number", with_config(strategy=1)),
            # no test-block hash: nothing says the two score the same rows
            *((f"eval_only_{n}", {"eval": dict(MINIMAL_REPORT["eval"], n=n),
                                  "training_rows_used": 5}) for n in (3, 900))]:
        (root / f"{name}.json").write_text(json.dumps(report), encoding="utf-8")
    (root / "cv_text.csv").write_text("alpha,fold,val_mse\nx,0,1.0\n", encoding="utf-8")
    (root / "cv_long.csv").write_text("alpha,fold,val_mse\n0.1,0,1.0,9\n", encoding="utf-8")
    (root / "cmp_short.csv").write_text("model,strategy,mae,rmse,r2\nmlp,baseline,1.0\n",
                                        encoding="utf-8")
    (root / "latin1.csv").write_bytes(b"timestamp,interest_rate\n2020-01-01T00:00,caf\xe9\n")
    (root / "short_row.csv").write_text("v,timestamp\n1.0,2020-01-01T00:00\n2.0\n",
                                        encoding="utf-8")
    for name, stamp in OUT_OF_RANGE_STAMPS.items():
        (root / f"{name}.csv").write_text(
            f"timestamp,v\n{stamp},1.0\n2020-01-01T00:00,2.0\n2020-01-01T01:00,3.0\n"
            "2020-01-01T02:00,4.0\n", encoding="utf-8")
    seg = load_json(root / "seg.json")
    for name, change in BAD_SEGMENTATIONS.items():
        (root / f"{name}.json").write_text(json.dumps(dict(seg, **change)), encoding="utf-8")
    return root


# timestamp cells outside the years 1 to 9999 that datetime can hold
OUT_OF_RANGE_STAMPS = {
    "stamp_inf": "inf",
    "stamp_1e30": "1e30",
    "stamp_minus_1e30": "-1e30",
    "stamp_before_year_1": "0001-01-01T00:00+01:00",
    "stamp_after_year_9999": "9999-12-31T23:00-05:00",
    "stamp_year_33658": "1000000000000",
}

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
    ["compare", "--reports", "{wrong}/eval_only_3.json", "{wrong}/eval_only_900.json"],
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
    *(["detect", "--data", f"{{wrong}}/{name}.csv", "--target", "v", "--plot", "s.svg"]
      for name in OUT_OF_RANGE_STAMPS),
], ids=["segmentation_as_report", "text_as_report", "text_as_segmentation",
        "unknown_event_kind", "config_not_an_object", "series_as_cv_table",
        "list_as_segmentation", "text_metric_in_report", "model_list_in_report",
        "strategy_number_in_report", "reports_without_test_block", "text_in_cv_table",
        "latin1_cv_table", "cv_row_too_long", "comparison_row_too_short",
        "latin1_data_detect", "latin1_data_run", "latin1_data_plot", "row_without_timestamp",
        *BAD_SEGMENTATIONS, *OUT_OF_RANGE_STAMPS])
def test_wrong_file_exits_2(workdir, wrong_files, tmp_path, argv):
    argv = [a.format(wrong=wrong_files, data=workdir / "data.csv") for a in argv]
    assert_usage_error(argv, tmp_path)


def test_hourly_grid_too_long_exits_2(tmp_path):
    # four rows whose hourly grid would hold 87,649,416 stamps (669 MiB)
    data = tmp_path / "far.csv"
    data.write_text("timestamp,v\n0001-01-01T00:00,1.0\n2020-01-01T00:00,2.0\n"
                    "2020-01-01T01:00,3.0\n9999-12-31T23:00,4.0\n", encoding="utf-8")
    for argv in (["detect", "--data", str(data), "--target", "v"],
                 ["plot", "--kind", "series", "--data", str(data), "--column", "v",
                  "--out", "s.svg"]):
        proc = cli_process(argv, tmp_path, max_bytes=2 << 30)
        assert proc.returncode == 2
        assert proc.stderr == ("error: an hourly axis from 0001-01-01T00:00:00 to "
                               "9999-12-31T23:00:00 has 87,649,416 rows, more than the "
                               "10,000,000 supported\n")


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


@pytest.mark.parametrize("argv,header,name", [
    (["detect", "--target", "v"], "timestamp,v,v", "v"),
    (["detect", "--target", "v"], "timestamp, v ,v", "v"),
    (["detect", "--target", "v"], "timestamp,v,timestamp", "timestamp"),
    (["plot", "--kind", "loss"], "epoch,train_loss,val_loss,val_loss", "val_loss")],
    ids=["value", "value_padded", "timestamp", "loss_table"])
def test_column_named_twice_exits_2(tmp_path, capsys, argv, header, name):
    # reading the first of the two columns would drop the other without a word
    data = tmp_path / "twice.csv"
    width = header.count(",")
    data.write_text(header + "\n" + "".join(
        ",".join([str(i * 3600), *(str(i % 7 + k) for k in range(width))]) + "\n"
        for i in range(1, 300)), encoding="utf-8")
    assert main([*argv, "--data", str(data), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {data}: column {name!r} appears twice in the header\n")


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


def readme_blocks():
    """The fenced code blocks of README, each starting with its language tag."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("```")[1::2]


def test_readme_commands_parse():
    """Every ``driftcast`` command in README's code blocks is one the parser
    accepts, so deleting a flag cannot leave the quick start broken."""
    blocks = readme_blocks()
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("driftcast ")]
    assert len(commands) >= 7
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command, comments=True)[1:])


def test_readme_imports_exist():
    """Every name README's Python blocks import exists, so deleting a library
    name cannot leave the usage example broken. Only the imports run."""
    imports = [node for block in readme_blocks() if block.startswith("python\n")
               for node in ast.parse(block[len("python\n"):]).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        namespace = {}
        exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
        bound = {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        assert bound <= set(namespace)
