"""The ``driftcast`` command: synth, detect, run, compare, plot.

Exit codes: 0 success, 2 usage or configuration error, 3 numeric failure
(training divergence, non-finite data or scores), 4 I/O failure. All
emitted JSON/CSV artifacts are byte-stable for a fixed invocation and
seed; SVG files carry no metadata. Every setting comes from a flag or a
config file; ``run``'s flags default to the library's settings (seed 0).
"""

from __future__ import annotations

import argparse
import glob as globmod
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import changepoint as cp
from . import pipeline, serialize, svgplot, synth
from .errors import DriftcastError, DriftcastWarning, NumericError
from .features import POLYNOMIAL_DEGREES, FeatureSpec
from .frame import (TIMESTAMP_COLUMN, SplitSpec, TimeSeriesFrame, forward_fill, load_csv,
                    resample_hourly, write_csv)
from .mlp import MlpConfig

USAGE_ERROR = 2
NUMERIC_ERROR = 3
IO_ERROR = 4

KNOWN_TARGETS = ("interest_rate", "elec_kW")


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise DriftcastError(
            f"{flag} takes comma-separated integers, got {text!r}") from None


def _pick_target(frame, requested):
    if requested:
        if requested not in frame.columns:
            raise DriftcastError(f"no column named {requested!r} in the data")
        return requested
    for name in KNOWN_TARGETS:
        if name in frame.columns:
            return name
    if len(frame.columns) == 1:
        return next(iter(frame.columns))
    raise DriftcastError(
        f"cannot infer a target among columns {list(frame.columns)}; pass --target")


def _series(args, requested, columns=None):
    """The ``--data`` series on an hourly grid: ``columns``, or else the
    ``requested`` or inferred target, forward-filled; the frame and names."""
    frame = load_csv(args.data, timestamp_column=args.timestamp_column)
    names = list(columns) if columns else [_pick_target(frame, requested)]
    frame = resample_hourly(frame)
    for name in names:
        frame = forward_fill(frame, name)
    return frame, names


def cmd_synth(args) -> int:
    if args.config:
        raw = serialize.load(args.config)
        try:
            config = synth.SynthConfig.from_dict(raw)
        except DriftcastError as exc:  # name the file, as the other JSON readers do
            raise DriftcastError(f"{args.config}: {exc}") from None
    else:
        config = synth.SynthConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    frame = synth.generate(config)
    write_csv(frame, args.out)
    sidecar = args.sidecar or f"{args.out}.meta.json"
    serialize.dump(synth.ground_truth(config), sidecar)
    print(f"wrote {frame.n} rows to {args.out} (ground truth: {sidecar})")
    return 0


def _series_svg(frame, column, changepoints) -> str:
    """The figure of ``detect --plot`` and ``plot --kind series``."""
    ts = frame.timestamps
    return svgplot.line_plot(
        [(column, ts.astype(float), frame.column(column))],
        title=f"Detected changepoints ({column})",
        xlabel="time", ylabel=column,
        vlines=[float(ts[i]) for i in changepoints],
        x_is_time=True)


def _comparison_svg(table) -> str:
    """The figure of ``compare --plot`` and ``plot --kind comparison``."""
    return svgplot.grouped_bars(table.panels(), title="Baseline vs drift-aware retraining")


def cmd_detect(args) -> int:
    frame, names = _series(args, args.target, args.columns)
    if args.columns:
        X = np.column_stack([frame.column(name) for name in names])
        seg = cp.multivariate_detect(X, args.cost, args.beta)
    else:
        seg = cp.pelt_detect(frame.column(names[0]), args.cost, args.beta)
    serialize.dump(serialize.record(seg), args.out)

    print(f"changepoints: {list(seg.changepoints)}")
    if args.plot:
        Path(args.plot).write_text(_series_svg(frame, names[0], seg.changepoints),
                                   encoding="utf-8")
    return 0


def _strategy_config(args) -> pipeline.StrategyConfig:
    spec = FeatureSpec(
        lags=_int_list(args.lags, "--lags"),
        rolling_windows=_int_list(args.windows, "--windows"),
        polynomial_degree=args.poly_degree,
    )
    detection = pipeline.DetectionConfig(
        columns=tuple(args.detect_columns) if args.detect_columns else None,
        beta=args.beta,
    )
    return pipeline.StrategyConfig(
        strategy=args.strategy,
        model=args.model,
        mlp=MlpConfig(max_epochs=args.max_epochs),
        feature_spec=spec,
        detection=detection,
        split=SplitSpec(args.train_fraction),
        seed=args.seed,
        metric_scale=args.scale,
        dataset_id=Path(args.data).name,
    )


def cmd_run(args) -> int:
    config = _strategy_config(args)
    frame, (target,) = _series(args, args.target)
    result = pipeline.run(frame, target, config)
    report = result.report
    report.dataset_sha256 = serialize.sha256_file(args.data)
    serialize.dump(serialize.record(report), args.out)

    stem = str(args.out)
    stem = stem[:-5] if stem.endswith(".json") else stem
    predictions = {"actual": result.test_y, "predicted": result.predictions}
    write_csv(TimeSeriesFrame(result.test_timestamps, predictions), f"{stem}_predictions.csv")
    suffix, write_side_csv = result.side_csv
    write_side_csv(f"{stem}{suffix}")
    if args.model_out:
        serialize.dump(result.model.to_dict(), args.model_out)

    ev = report.eval
    print(f"{args.model} {args.strategy}: mae {ev.mae:.6f} rmse {ev.rmse:.6f} "
          f"r2 {ev.r2:.6f} ({config.metric_scale} scale, "
          f"{report.training_rows_used} training rows)")
    if report.fallback_reason:
        print(f"note: fell back to baseline training ({report.fallback_reason})")
    return 0


def cmd_compare(args) -> int:
    paths: list[str] = []
    for pattern in args.reports:
        hits = sorted(globmod.glob(pattern))
        paths.extend(hits if hits else [pattern])
    if not paths:
        raise DriftcastError("no report files matched")
    reports = [pipeline.RunReport.from_dict(serialize.load(p), p) for p in paths]
    table = pipeline.compare(reports)
    table.to_csv(args.out)
    if args.plot:
        Path(args.plot).write_text(_comparison_svg(table), encoding="utf-8")
    for row in table.rows:
        extra = ""
        if row["mae_reduction_rel"] is not None:
            # the signed change of MAE; 0.0 - x prints no change as +0.0%
            extra = (f"  mae {0.0 - row['mae_reduction_rel']:+.1%}"
                     f"  r2 {row['r2_gain']:+.4f}")
        print(f"{row['model']:>6} {row['strategy']:<9} mae {row['mae']:.6f} "
              f"rmse {row['rmse']:.6f} r2 {row['r2']:.6f}{extra}")
    return 0


def cmd_plot(args) -> int:
    if args.kind == "series":
        frame, (column,) = _series(args, args.column)
        changepoints = ()
        if args.segmentation:
            seg = cp.Segmentation.from_dict(serialize.load(args.segmentation),
                                            args.segmentation)
            if seg.n != frame.n:
                raise DriftcastError(f"{args.segmentation} segments {seg.n} rows, "
                                     f"the series has {frame.n}")
            changepoints = seg.changepoints
        svg = _series_svg(frame, column, changepoints)
    elif args.kind == "predictions":
        frame, names = _series(args, None, ["actual", "predicted"])
        ts = frame.timestamps.astype(float)
        svg = svgplot.line_plot(
            [(name, ts, frame.column(name)) for name in names],
            title="Actual vs predicted", xlabel="time", ylabel="target", x_is_time=True)
    elif args.kind == "loss":
        rows = _read_csv_columns(args.data, ["epoch", "train_loss", "val_loss"])
        epochs = np.array(rows["epoch"])
        svg = svgplot.line_plot(
            [("train_loss", epochs, np.array(rows["train_loss"])),
             ("val_loss", epochs, np.array(rows["val_loss"]))],
            title="Training loss", xlabel="epoch", ylabel="MSE")
    elif args.kind == "cv":
        rows = _read_csv_columns(args.data, ["alpha", "val_mse"], text=["fold"])
        alphas = np.array(rows["alpha"])
        mses = np.array(rows["val_mse"])
        grid = sorted(set(alphas))
        x = np.log10(grid)
        mean = np.array([mses[alphas == a].mean() for a in grid])
        series = [("mean val MSE", x, mean)]
        for fold in sorted(set(rows["fold"])):
            mask = np.array(rows["fold"]) == fold
            order = np.argsort(alphas[mask])
            series.append((f"fold {fold}", np.log10(alphas[mask][order]),
                           mses[mask][order]))
        svg = svgplot.line_plot(series, title="Validation MSE vs regularization",
                                xlabel="log10(alpha)", ylabel="MSE")
    else:  # comparison
        rows = _read_csv_columns(args.data, ["mae", "rmse", "r2"], text=["model", "strategy"])
        svg = _comparison_svg(pipeline.ComparisonTable(
            [dict(zip(rows, values)) for values in zip(*rows.values())]))
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def _read_csv_columns(path, numeric, text=()) -> dict[str, list]:
    """The named columns of a CSV artifact, ``numeric`` ones as floats."""
    reader = serialize.read_csv(path)
    header = next(reader, [])
    rows = [row for row in reader if row]
    if not rows:
        raise DriftcastError(f"{path}: no data rows")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DriftcastError(
                f"{path}: row {i} has {len(row)} fields, the header has {len(header)}")
    out = {}
    for name in [*text, *numeric]:
        if name not in header:
            raise DriftcastError(f"{path} has no {name!r} column")
        cells = [row[header.index(name)] for row in rows]
        try:
            out[name] = cells if name in text else [float(c) for c in cells]
        except ValueError:
            raise DriftcastError(f"{path}: column {name!r} holds a non-number") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftcast",
        description="Changepoint-aware forecasting: detect drift, retrain, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic drift dataset")
    p.add_argument("--config", help="JSON file with generator settings")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="synthetic.csv")
    p.add_argument("--sidecar", help="ground-truth JSON path (default <out>.meta.json)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="detect changepoints in a series")
    p.add_argument("--data", required=True)
    p.add_argument("--target", help="target column (default: inferred)")
    p.add_argument("--columns", type=lambda s: s.split(","), default=None,
                   help="comma-separated columns for joint detection")
    p.add_argument("--beta", type=float, default=None,
                   help="penalty (default: derived from first differences)")
    p.add_argument("--cost", choices=[cp.L2_MEAN, cp.GAUSSIAN_NLL], default=cp.L2_MEAN)
    p.add_argument("--timestamp-column", default=TIMESTAMP_COLUMN)
    p.add_argument("--out", default="segmentation.json")
    p.add_argument("--plot", help="write a series+changepoints SVG here")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("run", help="run one forecasting strategy end to end")
    p.add_argument("--data", required=True)
    p.add_argument("--target")
    p.add_argument("--model", choices=pipeline.FAMILIES, required=True)
    p.add_argument("--strategy", choices=[pipeline.BASELINE, pipeline.DRIFT_RETRAIN],
                   required=True)
    p.add_argument("--seed", type=int, default=pipeline.StrategyConfig.seed)
    p.add_argument("--train-fraction", type=float, default=SplitSpec.train_fraction)
    p.add_argument("--scale", choices=[pipeline.SCALE_STANDARDIZED,
                                       pipeline.SCALE_ORIGINAL],
                   default=pipeline.StrategyConfig.metric_scale)
    p.add_argument("--detect-columns", type=lambda s: s.split(","), default=None,
                   help="feature columns to detect on jointly (default: the target)")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--lags", default=",".join(map(str, FeatureSpec.lags)))
    p.add_argument("--windows", default=",".join(map(str, FeatureSpec.rolling_windows)))
    p.add_argument("--poly-degree", type=int, choices=POLYNOMIAL_DEGREES,
                   default=FeatureSpec.polynomial_degree)
    p.add_argument("--max-epochs", type=int, default=MlpConfig.max_epochs)
    p.add_argument("--timestamp-column", default=TIMESTAMP_COLUMN)
    p.add_argument("--out", default="report.json")
    p.add_argument("--model-out", help="trained-model JSON dump path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="tabulate runs that share a test block")
    p.add_argument("--reports", nargs="+", required=True,
                   help="report JSON paths or glob patterns")
    p.add_argument("--out", default="comparison.csv")
    p.add_argument("--plot", help="grouped-bar SVG path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot", help="draw an SVG figure from an artifact")
    p.add_argument("--kind",
                   choices=["series", "predictions", "loss", "cv", "comparison"],
                   required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--column", help="series column (kind=series)")
    p.add_argument("--segmentation", help="segmentation JSON to overlay (kind=series)")
    p.add_argument("--timestamp-column", default=TIMESTAMP_COLUMN)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous_format = warnings.formatwarning

    def format_warning(message, category, filename, lineno, line=None):
        # driftcast's own warnings print as one line, without the source
        # location and line that the default format adds
        if issubclass(category, DriftcastWarning):
            return f"warning: {message}\n"
        return previous_format(message, category, filename, lineno, line)

    warnings.formatwarning = format_warning
    try:
        # non-finite results surface as typed errors below, so numpy's own
        # warnings would only print ahead of the one-line message
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except DriftcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    finally:
        warnings.formatwarning = previous_format


if __name__ == "__main__":
    sys.exit(main())
