"""Spans and counters for the traced benchmark run.

A traced command rebinds driftcast's public entry points to timing
wrappers before ``cli.main`` runs. Callers import most entry points by
name (``from .mlp import mlp_train``), so each wrapper is installed on
the module whose global the caller looks up, not only on the defining
module. Every span records its name, start, end and parent; spans stay
in memory and the child process writes them out when the command exits.

This module holds no driftcast import at top level: the parent process
only needs the arithmetic (:func:`self_time`, :func:`summarize`,
:func:`layer_metrics`).
"""

from __future__ import annotations

import importlib
import time

# (module whose global the caller looks up, attribute, span name)
ENTRY_POINTS = (
    ("driftcast.cli", "load_csv", "frame.load_csv"),
    ("driftcast.cli", "resample_hourly", "frame.resample_hourly"),
    ("driftcast.cli", "forward_fill", "frame.forward_fill"),
    ("driftcast.cli", "write_csv", "frame.write_csv"),
    ("driftcast.synth", "generate", "synth.generate"),
    ("driftcast.changepoint", "pelt_detect", "changepoint.pelt_detect"),
    ("driftcast.pipeline", "run", "pipeline.run"),
    ("driftcast.pipeline", "detect_training_drift", "pipeline.detect_training_drift"),
    ("driftcast.pipeline", "build_features", "features.build_features"),
    ("driftcast.pipeline", "mlp_train", "mlp.mlp_train"),
    ("driftcast.pipeline", "mlp_predict", "mlp.mlp_predict"),
    ("driftcast.pipeline", "lasso_cv", "lasso.lasso_cv"),
    ("driftcast.lasso", "lasso_fit", "lasso.lasso_fit"),
    ("driftcast.pipeline", "evaluate", "metrics.evaluate"),
    ("driftcast.pipeline", "sha256_arrays", "serialize.sha256_arrays"),
    ("driftcast.serialize", "dump", "serialize.dump"),
    ("driftcast.serialize", "sha256_file", "serialize.sha256_file"),
    ("driftcast.svgplot", "line_plot", "svgplot.line_plot"),
    ("driftcast.svgplot", "grouped_bars", "svgplot.grouped_bars"),
)

# spans whose self time is reported (the rest report total time)
SELF_TIMED = ("cli.main", "pipeline.run")


class Recorder:
    """In-memory spans (id, parent, name, start, end) plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(args, kwargs, result)``
        may add counters once the call returns."""
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": self.clock(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def install(recorder: Recorder) -> None:
    """Rebind every entry point in :data:`ENTRY_POINTS` to a timing wrapper.

    Raises ``AttributeError`` when an entry point no longer exists, so a
    renamed function fails the traced run instead of going unmeasured.
    """
    from driftcast import changepoint

    hooks = {
        "changepoint.pelt_detect": _pelt_counts(recorder),
        "mlp.mlp_train": lambda a, k, res: recorder.count("mlp.epochs", res[1].stopped_epoch),
        "lasso.lasso_fit": _lasso_counts(recorder),
        "frame.load_csv": lambda a, k, res: recorder.count("frame.load_csv.rows", res.n),
    }
    for module_name, attr, span_name in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr, recorder.wrap(original, span_name, hooks.get(span_name)))

    accumulate = changepoint.SegmentCosts.accumulate

    def counted(self, starts, *args, **kwargs):
        recorder.count("changepoint.steps")
        recorder.count("changepoint.candidates", starts.size)
        return accumulate(self, starts, *args, **kwargs)

    changepoint.SegmentCosts.accumulate = counted


def _pelt_counts(recorder: Recorder):
    def hook(args, kwargs, result):
        values = args[0] if args else kwargs["values"]
        min_size = args[3] if len(args) > 3 else kwargs.get("min_size", 2)
        n = len(values)
        # candidates an unpruned search would evaluate: sum of (t - min_size + 1)
        steps = n - min_size + 1
        recorder.count("changepoint.unpruned", steps * (steps + 1) // 2)
    return hook


def _lasso_counts(recorder: Recorder):
    def hook(args, kwargs, model):
        recorder.count("lasso.sweeps", model.n_sweeps)
        recorder.count("lasso.not_converged", 0 if model.converged else 1)
    return hook


def self_time(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children.

    Spans come from single-threaded nested calls, so a child lies inside
    its parent and siblings do not overlap.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def summarize(spans: list[dict], counters: dict[str, float]) -> dict[str, float]:
    """Additive totals for one command: ``<span>.s``, ``<span>.calls``,
    ``<span>.self_s`` for :data:`SELF_TIMED`, and every counter."""
    totals = dict(counters)
    own = self_time(spans)
    for s in spans:
        name = s["name"]
        totals[f"{name}.s"] = totals.get(f"{name}.s", 0.0) + s["end"] - s["start"]
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        if name in SELF_TIMED:
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + own[s["id"]]
    return totals


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


# every per-layer metric with its unit; "count" metrics must repeat exactly
UNITS = {
    "changepoint.pelt_detect.s": "s", "changepoint.pelt_detect.calls": "count",
    "changepoint.steps": "count", "changepoint.candidates": "count",
    "changepoint.prune_ratio": "ratio", "changepoint.us_per_step": "us",
    "mlp.mlp_train.s": "s", "mlp.mlp_train.calls": "count", "mlp.epochs": "count",
    "mlp.s_per_epoch": "s", "mlp.mlp_predict.s": "s",
    "lasso.lasso_cv.s": "s", "lasso.lasso_cv.calls": "count",
    "lasso.lasso_fit.calls": "count", "lasso.sweeps": "count",
    "lasso.us_per_sweep": "us", "lasso.not_converged": "count",
    "features.build_features.s": "s", "features.build_features.calls": "count",
    "frame.load_csv.s": "s", "frame.load_csv.calls": "count",
    "frame.load_csv.rows": "count", "frame.resample_hourly.s": "s",
    "frame.forward_fill.s": "s", "frame.write_csv.s": "s", "synth.generate.s": "s",
    "pipeline.run.s": "s", "pipeline.detect_training_drift.s": "s",
    "pipeline.self_s": "s", "serialize.dump.s": "s", "serialize.sha256_arrays.s": "s",
    "serialize.sha256_file.s": "s", "metrics.evaluate.s": "s", "svgplot.s": "s",
    "cli.import_s": "s", "cli.main.s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}
# produced by set-up (input generation) rather than by the measured passes
SETUP_METRICS = ("frame.write_csv.s", "synth.generate.s")


def layer_metrics(t: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from totals summed over a pass or a set-up round.

    Totals are keyed ``<span>.s`` / ``<span>.calls`` / ``<span>.self_s``
    or by counter name. A layer that did no work reports 0.
    """
    g = lambda key: t.get(key, 0)
    derived = {
        "changepoint.prune_ratio": _ratio(g("changepoint.candidates"),
                                          g("changepoint.unpruned")),
        "changepoint.us_per_step": _ratio(g("changepoint.pelt_detect.s"),
                                          g("changepoint.steps"), 1e6),
        "mlp.s_per_epoch": _ratio(g("mlp.mlp_train.s"), g("mlp.epochs")),
        "lasso.us_per_sweep": _ratio(g("lasso.lasso_fit.s"), g("lasso.sweeps"), 1e6),
        "pipeline.self_s": g("pipeline.run.self_s"),
        "svgplot.s": g("svgplot.line_plot.s") + g("svgplot.grouped_bars.s"),
        "cli.self_s": g("cli.main.self_s"),
    }
    return {key: derived[key] if key in derived else g(key)
            for key in UNITS if key != "trace.overhead_s"}


