"""driftcast benchmark: the CLI campaign, detection alone, and fitting alone.

Run from the root of a checkout that holds ``src/driftcast``::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 40 --trace 0

Set-up turns ``--seed`` into input CSVs (through ``driftcast synth``,
repeated for ``SETUP_SECONDS``, at least ``MIN_SETUP_REPS`` times). The
benchmark then runs the workload's command list in passes, one
``driftcast`` command per fresh process and one process at a time (a
closed loop with one client), until the next pass would end after
``--seconds``. Every pass after the first must reproduce the first
pass's artifacts byte for byte, and every pass's output quality must be
within tolerance of the per-seed reference in ``perfbench/reference.json``
(written by ``perfbench/make_reference.py``). ``--seed`` picks one of the
``REFERENCE_SEEDS`` referenced input sets (``--seed`` modulo their count), so
every run is gated against an exact reference.

``--trace 0`` reports the end-to-end metrics: ``wall_cal`` (the median
pass time over the run's median time for a fixed calibration task that
runs no driftcast code, which cancels most of a shared host's speed
swings), ``setup_s`` and ``peak_rss_mb``; the raw pass time ``wall_s``
and the output-quality figures are printed too. ``--trace 1`` alternates
traced and untraced passes, starting traced, and reports the per-layer
metrics of the traced ones, the trace-coverage check, and the tracing
overhead (traced minus untraced pass time). The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. Human-readable lines and a results file (machine notes,
every artifact's sha256) come before it. See ``perfbench/NOTES.md`` for
why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
ROOT = Path.cwd()
WORK = ROOT / ".bench_work"

# set-up repeats until this much time is spent, and at least MIN_SETUP_REPS times
SETUP_SECONDS = 4.0
MIN_SETUP_REPS = 3
# byte identity needs an earlier pass to compare with, and a traced run
# needs an untraced pass to measure the tracing overhead against
MIN_PASSES = 2
CHILD_TIMEOUT_S = 60        # the longest command takes about 6 s

N_ROWS = 35064              # the default synth series, 2020-01-01 .. 2023-12-31 hourly
START_EPOCH = 1577836800    # 2020-01-01T00:00Z
N_STEPS = 24
TOL_ROWS = 24               # a changepoint within one day of an injected step matches it
NLL_BETA = "60"             # gaussian_nll needs an explicit penalty (see NOTES.md)
# So does l2_mean: its default penalty, 2*sigma2*ln(n) (about 0.47 here), gives
# a changepoint matching no injected step on about one series in twenty, such
# as a 12- to 15-row noise run. 1 is about 4.4*sigma2*ln(n) (see NOTES.md).
# With it no changepoint pays on the quiet series, so PELT prunes almost
# nothing there: its worst case, next to the step series' short candidate lists.
L2_BETA = "1"
# Not above the early-stopping patience (10), so every `fit` MLP trains
# exactly this many epochs; when early stopping ends training depends on
# the seed, and that moved `fit`'s pass time by up to 40% between seeds.
# Five rather than ten keeps `fit`'s two passes within a 40 s run.
MLP_EPOCHS = "5"

# Per-seed quality figures of every command, as this code computes them,
# for input seeds 0 .. REFERENCE_SEEDS - 1; --seed N runs input seed
# N % REFERENCE_SEEDS. A run's test MAE may exceed its reference by MAE_TOL
# (a share), a step series' mean distance to its injected steps may exceed
# it by LOCATE_TOL_ROWS, and a changepoint count must equal it.
REFERENCE = HERE / "reference.json"
REFERENCE_SEEDS = 32
MAE_TOL = 0.02
LOCATE_TOL_ROWS = 0.5

# pinned so that a command uses one core and its CPU time does not exceed
# its wall time; the other core is left to the benchmark and the machine
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class Workload:
    """One benchmark workload: inputs from the seed, commands, checks."""

    name = ""
    # traced counts that must come out exactly so (zero means "must not run")
    expected: dict[str, int] = {}
    # span names that must record at least one call in a traced pass
    active: tuple[str, ...] = ()

    def setup(self, seed: int, inputs: Path) -> list[list[str]]:
        raise NotImplementedError

    def commands(self, inputs: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, pass_dir: Path) -> dict[str, str]:
        """Command label -> why its output is wrong (empty when all pass)."""
        return {}

    def scores(self, pass_dir: Path) -> dict[str, dict[str, float]]:
        """Command label -> the quality figures gated against the reference."""
        raise NotImplementedError

    def quality(self, pass_dir: Path, scores: dict) -> dict[str, tuple[float, str]]:
        """Summary quality figures, printed (not gated as such)."""
        return {}


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _same_hashes(pass_dir: Path, labels, keys) -> dict[str, str]:
    """Every report must carry the first report's test-block ``keys``."""
    hashes = {label: [_load(pass_dir / f"{label}.json")[k] for k in keys]
              for label in labels}
    return {label: f"{'/'.join(keys)} differs from {labels[0]}"
            for label, h in hashes.items() if h != hashes[labels[0]]}


def _run_argv(data: Path, model: str, strategy: str, out: str, *extra: str) -> list[str]:
    return ["run", "--data", str(data), "--model", model, "--strategy", strategy,
            "--seed", "0", "--out", out, *extra]


class Campaign(Workload):
    """README quick start on the reference series."""

    name = "campaign"
    runs = ("mlp_base", "mlp_retrain", "lasso_base", "lasso_retrain")
    expected = {"changepoint.pelt_detect.calls": 3, "mlp.mlp_train.calls": 2,
                "lasso.lasso_cv.calls": 2, "lasso.lasso_fit.calls": 42,
                "frame.load_csv.calls": 5, "changepoint.steps": 90827}
    active = tuple(name for _, _, name in spans.ENTRY_POINTS
                   if name not in ("frame.write_csv", "synth.generate"))

    def setup(self, seed, inputs):
        return [["synth", "--seed", str(seed), "--out", str(inputs / "reference.csv")]]

    def commands(self, inputs):
        data = inputs / "reference.csv"
        cmds = [("detect", ["detect", "--data", str(data), "--out", "seg.json",
                            "--plot", "seg.svg"])]
        for label in self.runs:
            model, strategy = label.split("_")
            strategy = "baseline" if strategy == "base" else strategy
            cmds.append((label, _run_argv(data, model, strategy, f"{label}.json")))
        cmds.append(("compare", ["compare", "--reports", "*_base.json", "*_retrain.json",
                                 "--out", "comparison.csv", "--plot", "comparison.svg"]))
        return cmds

    def check(self, pass_dir):
        return _same_hashes(pass_dir, self.runs, ("test_sha256", "test_target_sha256"))

    def scores(self, pass_dir):
        out = {"detect": {"changepoints": len(_load(pass_dir / "seg.json")["changepoints"])}}
        out.update((label, {"mae": _load(pass_dir / f"{label}.json")["eval"]["mae"]})
                   for label in self.runs)
        return out

    def quality(self, pass_dir, scores):
        mae = {label: scores[label]["mae"] for label in self.runs}
        return {
            "mae_mean": (statistics.fmean(mae.values()), "std_units"),
            "mlp_mae_ratio": (mae["mlp_retrain"] / mae["mlp_base"], "ratio"),
            "lasso_mae_ratio": (mae["lasso_retrain"] / mae["lasso_base"], "ratio"),
        }


def step_events(rng: random.Random) -> list[tuple[int, float]]:
    """``N_STEPS`` sudden steps (row index, jump), one per jittered slot."""
    slot = N_ROWS // (N_STEPS + 1)
    return [(i * slot + rng.randint(-slot // 4, slot // 4),
             rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0))
            for i in range(1, N_STEPS + 1)]


def _distance(cps: list[int], at: int) -> int:
    return min((abs(c - at) for c in cps), default=N_ROWS)


class Detect(Workload):
    """Univariate detection only, on series of reference length: ``STEP_SETS``
    series with 24 steps, each under both costs, and one quiet series."""

    name = "detect"
    # two step series so that short candidate lists weigh about as much as
    # the quiet series' long ones
    STEP_SETS = 2
    expected = {"changepoint.pelt_detect.calls": 2 * STEP_SETS + 1,
                "frame.load_csv.calls": 2 * STEP_SETS + 1,
                "changepoint.steps": (2 * STEP_SETS + 1) * (N_ROWS - 1),
                "mlp.mlp_train.calls": 0, "lasso.lasso_cv.calls": 0,
                "lasso.lasso_fit.calls": 0}
    active = ("frame.load_csv", "frame.resample_hourly", "frame.forward_fill",
              "changepoint.pelt_detect", "serialize.dump")

    def setup(self, seed, inputs):
        rng = random.Random(seed)
        self.truth = {}
        configs = {}
        for j in range(self.STEP_SETS):
            events = step_events(rng)
            self.truth[j] = [at for at, _ in events]
            configs[f"steps{j}"] = {"seed": rng.randrange(2**31), "events": [
                {"kind": "sudden", "at": START_EPOCH + 3600 * at, "jump": jump}
                for at, jump in events]}
        configs["quiet"] = {"seed": rng.randrange(2**31), "events": []}
        cmds = []
        for stem, config in configs.items():
            path = inputs / f"{stem}.config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            cmds.append(["synth", "--config", str(path), "--out", str(inputs / f"{stem}.csv")])
        return cmds

    def commands(self, inputs):
        cmds = []
        for j in range(self.STEP_SETS):
            steps = str(inputs / f"steps{j}.csv")
            cmds += [
                (f"steps{j}_l2", ["detect", "--data", steps, "--beta", L2_BETA,
                                  "--out", f"steps{j}_l2.json"]),
                (f"steps{j}_nll", ["detect", "--data", steps, "--cost", "gaussian_nll",
                                   "--beta", NLL_BETA, "--out", f"steps{j}_nll.json"]),
            ]
        cmds.append(("quiet", ["detect", "--data", str(inputs / "quiet.csv"),
                               "--beta", L2_BETA, "--out", "quiet.json"]))
        return cmds

    def _scored(self, pass_dir):
        """(label, changepoints, injected steps) for every command."""
        for j in range(self.STEP_SETS):
            for cost in ("l2", "nll"):
                label = f"steps{j}_{cost}"
                yield label, _load(pass_dir / f"{label}.json")["changepoints"], self.truth[j]
        yield "quiet", _load(pass_dir / "quiet.json")["changepoints"], []

    def check(self, pass_dir):
        """Every injected step is found, and no changepoint is further than
        ``TOL_ROWS`` from every injected step (so the quiet series gives none)."""
        bad = {}
        for label, cps, truth in self._scored(pass_dir):
            missed = [at for at in truth if _distance(cps, at) > TOL_ROWS]
            spurious = [c for c in cps if _distance(truth, c) > TOL_ROWS]
            why = ([f"injected steps not found within {TOL_ROWS} rows: {missed}"] if missed
                   else []) + ([f"changepoints matching no injected step: {spurious}"]
                               if spurious else [])
            if why:
                bad[label] = "; ".join(why)
        return bad

    def scores(self, pass_dir):
        out = {}
        for label, cps, truth in self._scored(pass_dir):
            out[label] = {"changepoints": len(cps)}
            if truth:
                out[label]["locate_rows"] = statistics.fmean(_distance(cps, at) for at in truth)
        return out

    def quality(self, pass_dir, scores):
        dists, spurious, quiet = [], 0, 0
        for _, cps, truth in self._scored(pass_dir):
            dists += [_distance(cps, at) for at in truth]
            spurious += sum(1 for c in cps if _distance(truth, c) > TOL_ROWS)
            quiet += 0 if truth else len(cps)
        return {"cp_locate_rows": (statistics.fmean(dists), "rows"),
                "cp_spurious": (spurious, "count"),
                "cp_quiet": (quiet, "count")}


class Fit(Workload):
    """Baseline fits only (no detection), at feature degree 1 and 2, on
    ``SETS`` default-synth series."""

    name = "fit"
    # The degree-2 lasso's sweep count depends on the data (48,742-67,034
    # over seeds 201-205, 3.2-5.0 s), so each pass fits two independent series.
    SETS = 2
    models = ("mlp_d1", "mlp_d2", "lasso_d1", "lasso_d2")
    expected = {"mlp.mlp_train.calls": 2 * SETS, "lasso.lasso_cv.calls": 2 * SETS,
                "lasso.lasso_fit.calls": 42 * SETS, "frame.load_csv.calls": 4 * SETS,
                "changepoint.pelt_detect.calls": 0, "changepoint.steps": 0}
    active = ("frame.load_csv", "frame.resample_hourly", "frame.forward_fill",
              "pipeline.run", "features.build_features", "mlp.mlp_train",
              "mlp.mlp_predict", "lasso.lasso_cv", "lasso.lasso_fit",
              "metrics.evaluate", "serialize.sha256_arrays", "serialize.dump",
              "serialize.sha256_file")

    def setup(self, seed, inputs):
        rng = random.Random(seed)
        return [["synth", "--seed", str(rng.randrange(2**31)),
                 "--out", str(inputs / f"series{j}.csv")] for j in range(self.SETS)]

    def labels(self, j):
        return [f"{label}_{j}" for label in self.models]

    def commands(self, inputs):
        cmds = []
        for j in range(self.SETS):
            for label in self.labels(j):
                model, degree = label[:-2].split("_d")
                extra = ["--max-epochs", MLP_EPOCHS] if model == "mlp" else []
                cmds.append((label, _run_argv(inputs / f"series{j}.csv", model, "baseline",
                                              f"{label}.json", "--poly-degree", degree,
                                              *extra)))
        return cmds

    def check(self, pass_dir):
        # degree 1 and 2 share the target rows, not the design matrix
        bad = {}
        for j in range(self.SETS):
            bad.update(_same_hashes(pass_dir, self.labels(j), ("test_target_sha256",)))
        return bad

    def scores(self, pass_dir):
        return {label: {"mae": _load(pass_dir / f"{label}.json")["eval"]["mae"]}
                for j in range(self.SETS) for label in self.labels(j)}

    def quality(self, pass_dir, scores):
        return {"mae_mean": (statistics.fmean(s["mae"] for s in scores.values()), "std_units")}


WORKLOADS = {w.name: w for w in (Campaign, Detect, Fit)}


def _allowed(figure: str, ref: float) -> tuple[float, float]:
    if figure == "mae":
        return -float("inf"), ref * (1 + MAE_TOL)
    if figure == "locate_rows":
        return -float("inf"), ref + LOCATE_TOL_ROWS
    return ref, ref


def input_seed(seed: int) -> int:
    """The referenced input set that ``--seed`` runs."""
    return seed % REFERENCE_SEEDS


def quality_gate(workload: str, seed: int, scores: dict) -> dict[str, str]:
    """Command label -> the quality figure that is outside the band allowed
    around input seed ``seed``'s reference."""
    table = _load(REFERENCE).get(workload, {}) if REFERENCE.exists() else {}
    reference = table.get(str(seed), {})
    bad = {}
    for label, figs in scores.items():
        for fig, value in figs.items():
            if fig not in reference.get(label, {}):
                bad[label] = f"no reference for {fig} of seed {seed} in {REFERENCE.name}"
                continue
            lo, hi = _allowed(fig, reference[label][fig])
            if not lo <= value <= hi:
                bad[label] = (f"{fig} {value:.6g} outside [{lo:.6g}, {hi:.6g}] "
                              f"from seed {seed}'s reference")
    return bad


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "DRIFTCAST_SEED"}
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], cwd: Path, mode: str, record_path: Path) -> dict:
    """One command in a fresh process; its record plus wall time and code."""
    record_path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(record_path), mode, *argv],
                              cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        code, stderr = -9, f"timed out after {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    record = _load(record_path) if record_path.exists() else {}
    # the calibration runs after the command, inside the same process
    record.update(wall_s=wall - record.get("cal_s", 0.0), returncode=code,
                  stderr=stderr.strip()[-2000:])
    src = str(ROOT / "src")
    if mode != "notes" and record.get("driftcast_file") \
            and not record["driftcast_file"].startswith(src):
        raise RuntimeError(f"driftcast imported from {record['driftcast_file']}, not {src}")
    return record


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(workload: Workload, seed: int, inputs: Path, pass_dir: Path,
             trace: bool) -> dict:
    pass_dir.mkdir()
    mode = "1" if trace else "0"
    commands = []
    for label, argv in workload.commands(inputs):
        before = set(os.listdir(pass_dir))
        rec = run_child(argv, pass_dir, mode, pass_dir.parent / "record.json")
        rec["label"] = label
        rec["artifacts"] = {name: sha256(pass_dir / name)
                            for name in sorted(set(os.listdir(pass_dir)) - before)}
        commands.append(rec)
    failed = {c["label"]: f"exit code {c['returncode']}: {c['stderr'][-300:]}"
              for c in commands if c["returncode"] != 0}
    scores, quality = {}, {}
    if not failed:
        scores = workload.scores(pass_dir)
        quality = workload.quality(pass_dir, scores)
        for part in (workload.check(pass_dir), quality_gate(workload.name, seed, scores)):
            for label, why in part.items():
                failed[label] = f"{failed[label]}; {why}" if label in failed else why
    layers = {}
    if trace:
        totals = add_totals(commands)
        layers = {k: v for k, v in spans.layer_metrics(totals).items()
                  if k not in spans.SETUP_METRICS}
    return {"trace": trace, "commands": commands, "failed": failed,
            "wall_s": sum(c["wall_s"] for c in commands),
            "cpu_s": sum(c.get("cpu_s", 0.0) for c in commands),
            "scores": scores, "quality": quality, "layers": layers}


def add_totals(records: list[dict]) -> dict[str, float]:
    """Span and counter totals summed over commands; drops the raw spans."""
    totals: dict[str, float] = {}
    for rec in records:
        per = spans.summarize(rec.pop("spans", []), rec.pop("counters", {}))
        per["cli.import_s"] = rec.get("import_s", 0.0)
        rec["totals"] = per
        for key, value in per.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def run_setup(workload: Workload, seed: int, inputs: Path, trace: bool) -> list[dict]:
    """Rounds of input generation for ``SETUP_SECONDS``, at least
    ``MIN_SETUP_REPS`` of them; every round must write the same bytes."""
    reps = []
    t0 = time.perf_counter()
    while len(reps) < MIN_SETUP_REPS or time.perf_counter() - t0 < SETUP_SECONDS:
        argvs = workload.setup(seed, inputs)
        records = [run_child(argv, inputs, "1" if trace else "0", inputs / "record.json")
                   for argv in argvs]
        for rec in records:
            if rec["returncode"] != 0:
                raise RuntimeError(f"set-up command failed: {rec['stderr']}")
        layers = spans.layer_metrics(add_totals(records))
        reps.append({"setup_s": sum(r["wall_s"] for r in records),
                     "layers": {k: layers[k] for k in spans.SETUP_METRICS},
                     "inputs": {p.name: sha256(p) for p in sorted(inputs.glob("*.csv"))}})
    if any(rep["inputs"] != reps[0]["inputs"] for rep in reps):
        raise RuntimeError("set-up wrote different inputs for the same seed")
    return reps


def byte_identity(passes: list[dict]) -> None:
    """Mark a command failed when an artifact differs from the first pass."""
    first = {c["label"]: c["artifacts"] for c in passes[0]["commands"]}
    for p in passes[1:]:
        for c in p["commands"]:
            if c["artifacts"] != first[c["label"]] and c["label"] not in p["failed"]:
                p["failed"][c["label"]] = "artifacts differ from the first pass"


def coverage(workload: Workload, traced: list[dict]) -> list[str]:
    """Trace-coverage problems: an expected count that changed or a span
    that never fired. Counts must also repeat across traced passes."""
    problems = []
    for p in traced:
        layers = p["layers"]
        for key, want in workload.expected.items():
            if layers[key] != want:
                problems.append(f"{key} = {layers[key]}, expected {want}")
        seen = {key[:-len(".calls")] for c in p["commands"] for key in c["totals"]
                if key.endswith(".calls")}
        problems += [f"span {name} never recorded" for name in workload.active
                     if name not in seen]
    counts = [{k: v for k, v in p["layers"].items() if spans.UNITS[k] == "count"}
              for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    return sorted(set(problems))


def machine_notes(scratch: Path) -> dict:
    child = run_child([], scratch, "notes", scratch / "notes.json")
    model = "?"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "?")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": child.get("numpy"), "blas": child.get("blas"),
            "blas_threads": child.get("blas_threads"),
            "blas_env": CHILD_ENV["OPENBLAS_NUM_THREADS"],
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def median_cal(passes: list[dict]) -> float:
    """Median calibration time over every command of ``passes``."""
    return statistics.median(c["cal_s"] for p in passes for c in p["commands"]
                             if "cal_s" in c)


def measure(workload: Workload, seed: int, seconds: int, trace: bool, scratch: Path) -> dict:
    inputs = scratch / "inputs"
    inputs.mkdir()
    notes = machine_notes(scratch)
    setups = run_setup(workload, seed, inputs, trace)

    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(workload, seed, inputs, scratch / f"pass{len(passes)}", traced))
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed + median_of(passes, "wall_s") > seconds:
            break
    byte_identity(passes)
    return {"notes": notes, "setups": setups, "passes": passes}


def report(workload: Workload, seed: int, trace: bool, result: dict) -> dict:
    passes, setups = result["passes"], result["setups"]
    attempted = sum(len(p["commands"]) for p in passes)
    failures = [(i, label, why) for i, p in enumerate(passes)
                for label, why in sorted(p["failed"].items())]
    problems = []
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    walls = [round(p["wall_s"], 3) for p in untraced]

    print(f"workload {workload.name}  input seed {seed}  trace {int(trace)}  "
          f"passes {len(passes)} ({len(traced)} traced)")
    notes = result["notes"]
    print("machine: " + ", ".join(f"{k} {v}" for k, v in notes.items()))
    print(f"error_rate {len(failures) / attempted:.4g} ({len(failures)} failed "
          f"of {attempted} attempted commands)")
    for i, label, why in failures:
        print(f"  FAILED pass {i} {label}: {why}")
    print(f"quality gate: every command against seed {seed}'s reference "
          f"(test MAE up to +{MAE_TOL:.0%}, step location up to +{LOCATE_TOL_ROWS} rows, "
          "changepoint counts exact)")

    quality = passes[0]["quality"]
    if any(p["scores"] != passes[0]["scores"] for p in passes if p["scores"]):
        problems.append("quality figures differ between passes")

    if trace:
        metrics = {}
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(p["layers"][key] for p in traced)
        for key in setups[0]["layers"]:
            metrics[key] = statistics.median(s["layers"][key] for s in setups)
        # traced minus untraced pass time, each in calibration units first so
        # that the machine's speed swings between passes cancel
        cal = median_cal(passes)
        in_cal = lambda rows: statistics.median(p["wall_s"] / median_cal([p]) for p in rows)
        metrics["trace.overhead_s"] = (in_cal(traced) - in_cal(untraced)) * cal
        problems += coverage(workload, traced)
        units = spans.UNITS
        for key in sorted(metrics):
            note = ""
            if metrics[key] == 0 and units[key] != "count" and key != "trace.overhead_s":
                note = "  (absent: layer does no work on this workload)"
            print(f"  {key:36s} {metrics[key]:.6g} {units[key]}{note}")
        print(f"tracing overhead: {metrics['trace.overhead_s']:.3f} s per pass "
              f"({in_cal(traced):.2f} vs {in_cal(untraced):.2f} calibration units; raw "
              f"pass medians {median_of(traced, 'wall_s'):.3f} s traced, "
              f"{median_of(untraced, 'wall_s'):.3f} s untraced)")
        print("trace coverage: " + ("ok" if not problems else "; ".join(problems)))
    else:
        cal = median_cal(passes)
        metrics = {
            "wall_cal": median_of(passes, "wall_s") / cal,
            "setup_s": median_of(setups, "setup_s"),
            "peak_rss_mb": max(c.get("maxrss_kb", 0) for p in passes
                               for c in p["commands"]) / 1024.0,
        }
        units = {"wall_cal": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"  wall_s       median {median_of(passes, 'wall_s'):.4f} s over "
              f"{len(walls)} passes {walls}")
        print(f"  wall_cal     {metrics['wall_cal']:.4f} (wall_s over the median "
              f"calibration time, {cal:.4f} s)")
        print(f"  (cpu time    median {median_of(passes, 'cpu_s'):.4f} s, summed over commands)")
        print(f"  setup_s      median {metrics['setup_s']:.4f} s over {len(setups)} set-ups "
              f"{[round(s['setup_s'], 3) for s in setups]}")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB")
        for key, (value, unit) in quality.items():
            print(f"  {key:12s} {value:.6g} {unit}")

    digest = hashlib.sha256(json.dumps(
        [c["artifacts"] for c in passes[0]["commands"]], sort_keys=True).encode()).hexdigest()
    n_artifacts = sum(len(c["artifacts"]) for c in passes[0]["commands"])
    print(f"artifacts: {n_artifacts} files per pass, sha256 of their hashes {digest[:16]}")
    for why in problems:
        print(f"  PROBLEM {why}")
    return {"correct": not failures and not problems, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "driftcast" / "cli.py").is_file():
        print(f"error: no src/driftcast in {ROOT}; run from the root of a "
              "driftcast checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    scratch = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    seed = input_seed(args.seed)
    print(f"--seed {args.seed} runs input seed {seed} (of {REFERENCE_SEEDS} referenced)")
    try:
        result = measure(workload, seed, args.seconds, bool(args.trace), scratch)
        summary = report(workload, seed, bool(args.trace), result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**result, "summary": summary}, indent=1), encoding="utf-8")
    print(f"results (machine notes, every artifact's sha256): {out.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
