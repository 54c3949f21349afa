"""The ``driftcast`` command: synth, detect, run, compare, plot.

Exit codes: 0 success, 2 usage or configuration error, 3 numeric failure
(training divergence, non-finite data or scores), 4 I/O failure. All
emitted JSON/CSV artifacts are byte-stable for a fixed invocation and
seed; SVG files carry no metadata.
The environment variable ``DRIFTCAST_SEED`` supplies the default seed when
``--seed`` is not given.
"""

from __future__ import annotations

import argparse
import glob as globmod
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import changepoint as cp
from . import pipeline, serialize, svgplot, synth
from .errors import DriftcastError, InvalidConfig, NonFiniteLoss, NonFiniteValues
from .features import FeatureSpec
from .frame import SplitSpec, forward_fill, load_csv, resample_hourly, write_csv
from .lasso import LassoConfig
from .mlp import MlpConfig

USAGE_ERROR = 2
NUMERIC_ERROR = 3
IO_ERROR = 4

KNOWN_TARGETS = ("interest_rate", "elec_kW")


def _default_seed() -> int:
    env = os.environ.get("DRIFTCAST_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        return 0


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise InvalidConfig(
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


def _clean(frame, columns):
    frame = resample_hourly(frame)
    for name in columns:
        frame = forward_fill(frame, name)
    return frame


def cmd_synth(args) -> int:
    if args.config:
        config = synth.SynthConfig.from_dict(serialize.load(args.config))
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


def cmd_detect(args) -> int:
    frame = load_csv(args.data, timestamp_column=args.timestamp_column)
    model = cp.CostModel(args.cost)
    if args.columns:
        names = list(args.columns)
        frame = _clean(frame, names)
        if args.per_column:
            per, union = cp.per_column_detect(frame, names, model, args.min_size)
            payload = {
                "columns": {k: seg.to_dict() for k, seg in per.items()},
                "union_changepoints": union,
            }
            serialize.dump(payload, args.out)
            plot_seg = None
            plot_column = names[0]
            markers = union
        else:
            scaled = frame
            for name in names:  # detection contract expects standardized inputs
                col = frame.column(name)
                std = max(float(col.std()), 1e-8)
                scaled = scaled.with_columns(**{name: (col - col.mean()) / std})
            penalty = cp.PenaltyConfig(args.beta) if args.beta is not None else None
            seg = cp.multivariate_detect(scaled, names, model, penalty, args.min_size)
            serialize.dump(seg.to_dict(), args.out)
            plot_seg = seg
            plot_column = names[0]
            markers = list(seg.changepoints)
    else:
        target = _pick_target(frame, args.target)
        frame = _clean(frame, [target])
        series = frame.column(target)
        penalty = (cp.PenaltyConfig(args.beta) if args.beta is not None
                   else cp.default_penalty(series))
        seg = cp.pelt_detect(series, model, penalty, args.min_size)
        serialize.dump(seg.to_dict(), args.out)
        plot_seg = seg
        plot_column = target
        markers = list(seg.changepoints)

    print(f"changepoints: {markers}")
    if args.plot:
        values = frame.column(plot_column)
        ts = frame.timestamps
        svg = svgplot.line_plot(
            [(plot_column, ts.astype(float), values)],
            title=f"Detected changepoints ({plot_column})",
            xlabel="time", ylabel=plot_column,
            vlines=[float(ts[i]) for i in markers if i < len(ts)],
            x_is_time=True)
        Path(args.plot).write_text(svg, encoding="utf-8")
    return 0


def _strategy_config(args, strategy) -> pipeline.StrategyConfig:
    spec = FeatureSpec(
        lags=_int_list(args.lags, "--lags"),
        rolling_windows=_int_list(args.windows, "--windows"),
        polynomial_degree=args.poly_degree,
    )
    if args.enriched:
        # the asymmetric protocol: the static model keeps the reduced
        # calendar + rolling set, the retrained one gets lags and squares
        if strategy == pipeline.BASELINE:
            spec = replace(spec, lags=(), polynomial_degree=1)
        else:
            spec = replace(spec, polynomial_degree=2)
    detection = pipeline.DetectionConfig(
        columns=tuple(args.detect_columns) if args.detect_columns else None,
        on_target=args.detect_on == "target",
        beta=args.beta,
        min_size=args.min_size,
    )
    seed = args.seed if args.seed is not None else _default_seed()
    return pipeline.StrategyConfig(
        strategy=strategy,
        model=args.model,
        mlp=MlpConfig(max_epochs=args.max_epochs, seed=seed),
        lasso=LassoConfig(),
        feature_spec=spec,
        detection=detection,
        split=SplitSpec(args.train_fraction),
        seed=seed,
        metric_scale=args.scale,
        dataset_id=Path(args.data).name,
    )


def cmd_run(args) -> int:
    frame = load_csv(args.data, timestamp_column=args.timestamp_column)
    target = _pick_target(frame, args.target)
    frame = _clean(frame, [target])
    config = _strategy_config(args, args.strategy)
    result = pipeline.run(frame, target, config)
    report = result.report
    report.dataset_sha256 = serialize.sha256_file(args.data)
    serialize.dump(report.to_dict(), args.out)

    stem = str(args.out)
    stem = stem[:-5] if stem.endswith(".json") else stem
    pred_csv = args.predictions or f"{stem}_predictions.csv"
    with open(pred_csv, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp,actual,predicted\n")
        dts = result.test_timestamps.astype("datetime64[s]")
        for i in range(result.predictions.size):
            fh.write(f"{str(dts[i]).replace(' ', 'T')},"
                     f"{serialize.fmt_float(result.test_y[i])},"
                     f"{serialize.fmt_float(result.predictions[i])}\n")
    if args.plot:
        ts = result.test_timestamps.astype(float)
        svg = svgplot.line_plot(
            [("actual", ts, result.test_y), ("predicted", ts, result.predictions)],
            title=f"{args.model} {args.strategy}: actual vs predicted",
            xlabel="time", ylabel=target, x_is_time=True)
        Path(args.plot).write_text(svg, encoding="utf-8")
    if result.train_report is not None:
        loss_csv = args.loss_csv or f"{stem}_loss.csv"
        result.train_report.to_csv(loss_csv)
        if args.loss_plot:
            epochs = np.arange(1, len(result.train_report.train_loss) + 1, dtype=float)
            svg = svgplot.line_plot(
                [("train_loss", epochs, np.asarray(result.train_report.train_loss)),
                 ("val_loss", epochs, np.asarray(result.train_report.val_loss))],
                title=f"{args.model} {args.strategy} training loss",
                xlabel="epoch", ylabel="MSE")
            Path(args.loss_plot).write_text(svg, encoding="utf-8")
    if result.cv_results:
        with open(f"{stem}_cv.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("alpha,fold,val_mse\n")
            for alpha, fold, val_mse in result.cv_results:
                fh.write(f"{serialize.fmt_float(alpha)},{fold},"
                         f"{serialize.fmt_float(val_mse)}\n")
    if args.model_out:
        serialize.dump(result.model.to_dict(), args.model_out)

    ev = report.eval
    print(f"{args.model} {args.strategy}: mae {ev.mae:.6f} rmse {ev.rmse:.6f} "
          f"r2 {ev.r2:.6f} ({ev.scale} scale, {report.training_rows_used} training rows)")
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
    reports = [pipeline.RunReport.from_dict(serialize.load(p)) for p in paths]
    table = pipeline.compare(reports)
    table.to_csv(args.out)
    if args.plot:
        svg = svgplot.grouped_bars(table.panels(), title="Baseline vs drift-aware retraining")
        Path(args.plot).write_text(svg, encoding="utf-8")
    for row in table.rows:
        extra = ""
        if row["mae_reduction_rel"] is not None:
            extra = (f"  mae -{row['mae_reduction_rel'] * 100:.1f}%"
                     f"  r2 {row['r2_gain']:+.4f}")
        print(f"{row['model']:>6} {row['strategy']:<9} mae {row['mae']:.6f} "
              f"rmse {row['rmse']:.6f} r2 {row['r2']:.6f}{extra}")
    return 0


def cmd_plot(args) -> int:
    if args.kind == "series":
        frame = load_csv(args.data, timestamp_column=args.timestamp_column)
        column = _pick_target(frame, args.column)
        markers = []
        if args.segmentation:
            seg = serialize.load(args.segmentation)
            ts = frame.timestamps
            markers = [float(ts[i]) for i in seg.get("changepoints", []) if i < len(ts)]
        svg = svgplot.line_plot(
            [(column, frame.timestamps.astype(float), frame.column(column))],
            title=f"Series with detected changepoints ({column})" if markers
            else f"Series ({column})",
            xlabel="time", ylabel=column, vlines=markers, x_is_time=True)
    elif args.kind == "predictions":
        rows = _read_csv_columns(args.data)
        ts = np.array([_iso_to_float(s) for s in rows["timestamp"]])
        svg = svgplot.line_plot(
            [("actual", ts, np.array(rows["actual"], float)),
             ("predicted", ts, np.array(rows["predicted"], float))],
            title="Actual vs predicted", xlabel="time", ylabel="target",
            x_is_time=True)
    elif args.kind == "loss":
        rows = _read_csv_columns(args.data)
        epochs = np.array(rows["epoch"], float)
        svg = svgplot.line_plot(
            [("train_loss", epochs, np.array(rows["train_loss"], float)),
             ("val_loss", epochs, np.array(rows["val_loss"], float))],
            title="Training loss", xlabel="epoch", ylabel="MSE")
    elif args.kind == "cv":
        rows = _read_csv_columns(args.data)
        alphas = np.array(rows["alpha"], float)
        mses = np.array(rows["val_mse"], float)
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
        rows = _read_csv_columns(args.data)
        labels = [f"{m}-{s}" for m, s in zip(rows["model"], rows["strategy"])]
        panels = [
            ("MAE", list(zip(labels, map(float, rows["mae"])))),
            ("RMSE", list(zip(labels, map(float, rows["rmse"])))),
            ("R2", list(zip(labels, map(float, rows["r2"])))),
        ]
        svg = svgplot.grouped_bars(panels, title="Cross-model metrics")
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def _read_csv_columns(path) -> dict[str, list[str]]:
    import csv as _csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv.DictReader(fh)
        out: dict[str, list[str]] = {name: [] for name in reader.fieldnames or []}
        for row in reader:
            for k, v in row.items():
                out[k].append(v)
    return out


def _iso_to_float(text: str) -> float:
    from .frame import _parse_timestamp

    return float(_parse_timestamp(text))


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
    p.add_argument("--per-column", action="store_true",
                   help="detect each column separately and union the results")
    p.add_argument("--beta", type=float, default=None,
                   help="penalty (default: derived from first differences)")
    p.add_argument("--cost", choices=[cp.L2_MEAN, cp.GAUSSIAN_NLL], default=cp.L2_MEAN)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--timestamp-column", default="timestamp")
    p.add_argument("--out", default="segmentation.json")
    p.add_argument("--plot", help="write a series+changepoints SVG here")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("run", help="run one forecasting strategy end to end")
    p.add_argument("--data", required=True)
    p.add_argument("--target")
    p.add_argument("--model", choices=[pipeline.MLP, pipeline.LASSO], required=True)
    p.add_argument("--strategy", choices=[pipeline.BASELINE, pipeline.DRIFT_RETRAIN],
                   required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="default: $DRIFTCAST_SEED or 0")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--scale", choices=[pipeline.SCALE_STANDARDIZED,
                                       pipeline.SCALE_ORIGINAL],
                   default=pipeline.SCALE_STANDARDIZED)
    p.add_argument("--detect-on", choices=["features", "target"], default="features")
    p.add_argument("--detect-columns", type=lambda s: s.split(","), default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--lags", default="1,24,168")
    p.add_argument("--windows", default="24,168")
    p.add_argument("--poly-degree", type=int, choices=[1, 2], default=1)
    p.add_argument("--enriched", action="store_true",
                   help="asymmetric feature sets (reduced baseline, enriched retrain)")
    p.add_argument("--max-epochs", type=int, default=300)
    p.add_argument("--timestamp-column", default="timestamp")
    p.add_argument("--out", default="report.json")
    p.add_argument("--predictions", help="predictions CSV (default <out stem>_predictions.csv)")
    p.add_argument("--plot", help="actual-vs-predicted SVG path")
    p.add_argument("--loss-csv", help="per-epoch loss CSV (mlp only)")
    p.add_argument("--loss-plot", help="loss-curve SVG path (mlp only)")
    p.add_argument("--model-out", help="trained-model JSON dump path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="tabulate runs that share a test block")
    p.add_argument("--reports", nargs="+", required=True,
                   help="report JSON paths or glob patterns")
    p.add_argument("--out", default="comparison.csv")
    p.add_argument("--plot", help="grouped-bar SVG path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot", help="re-render an SVG figure from an artifact")
    p.add_argument("--kind",
                   choices=["series", "predictions", "loss", "cv", "comparison"],
                   required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--column", help="series column (kind=series)")
    p.add_argument("--segmentation", help="segmentation JSON to overlay (kind=series)")
    p.add_argument("--timestamp-column", default="timestamp")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonFiniteLoss, NonFiniteValues) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except DriftcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
