"""The headline experiment: static baseline vs drift-aware retraining.

A sudden level shock lands late in the training block. The baseline MLP
trains on everything and meets test inputs far outside the distribution it
mostly saw; the drift-aware run detects the shock in the target series,
throws away everything before it and the feature rows whose lags still
reach back across it, and retrains from scratch on the post-shock segment.
Both are scored on a byte-identical test block.

Run:  python demos/demo_pipeline.py
"""

from pathlib import Path

from driftcast.mlp import MlpConfig
from driftcast.pipeline import StrategyConfig, compare, run_baseline, run_retrain
from driftcast.svgplot import grouped_bars, line_plot
from driftcast.synth import SUDDEN, GRADUAL, DriftEvent, SynthConfig, generate, TARGET_COLUMN

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

config = SynthConfig(
    start="2020-01-01T00:00",
    end="2020-12-31T23:00",
    events=(
        DriftEvent(GRADUAL, "2020-03-01T00:00", total_shift=1.0, duration_hours=60 * 24),
        DriftEvent(SUDDEN, "2020-09-20T00:00", jump=2.0),
    ),
    seed=5,
)
frame = generate(config)
print(f"dataset: {frame.n} rows, shock at row "
      f"{[e.at for e in config.events][1] // 3600 - config.start // 3600}")

reports = []
for family in ("mlp", "lasso"):
    cfg = StrategyConfig(model=family, mlp=MlpConfig(seed=0, max_epochs=120),
                         seed=0, dataset_id="demo")
    base = run_baseline(frame, TARGET_COLUMN, cfg)
    retr = run_retrain(frame, TARGET_COLUMN, cfg)
    reports += [base.report, retr.report]
    seg = retr.report.segmentation
    print(f"\n{family}: detector found {seg.m} changepoints, "
          f"last at feature row {seg.changepoints[-1] if seg.m else '-'}; "
          f"retraining kept {retr.report.training_rows_used} of "
          f"{base.report.training_rows_used} rows")
    for res in (base, retr):
        ev = res.report.eval
        print(f"  {ev.provenance['strategy']:<9} mae {ev.mae:.4f}  "
              f"rmse {ev.rmse:.4f}  r2 {ev.r2:+.4f}")
    svg = line_plot(
        [("actual", retr.test_timestamps.astype(float), retr.test_y),
         ("baseline", base.test_timestamps.astype(float), base.predictions),
         ("retrained", retr.test_timestamps.astype(float), retr.predictions)],
        title=f"{family}: test-block predictions", xlabel="time",
        ylabel="rate", x_is_time=True)
    (OUT / f"pipeline_{family}.svg").write_text(svg)

table = compare(reports)
table.to_csv(OUT / "pipeline_comparison.csv")
(OUT / "pipeline_comparison.svg").write_text(
    grouped_bars(table.panels(), title="Baseline vs drift-aware retraining"))

print("\ncomparison (relative MAE reduction vs same-family baseline):")
for row in table.rows:
    if row["mae_reduction_rel"] is not None:
        print(f"  {row['model']:>5}: {row['mae_reduction_rel'] * 100:+.1f}% mae, "
              f"r2 {row['r2_gain']:+.4f}")
print(f"artifacts in {OUT}/")
