"""The benchmark runner's quality gate and its handling of a hung command.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402


REFERENCE = {"fit": {
    "1": {"mlp_d1_0": {"mae": 0.50}},
    "2": {"mlp_d1_0": {"mae": 0.40}},
}, "detect": {
    "1": {"steps0_l2": {"changepoints": 24, "locate_rows": 0.1}},
    "2": {"steps0_l2": {"changepoints": 25, "locate_rows": 0.3}},
}}


def gate(tmp_path, monkeypatch, workload, seed, scores):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(REFERENCE), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCE", path)
    return run.quality_gate(workload, seed, scores)


def test_referenced_seed_allows_a_small_mae_rise_only(tmp_path, monkeypatch):
    assert gate(tmp_path, monkeypatch, "fit", 1, {"mlp_d1_0": {"mae": 0.509}}) == {}
    assert gate(tmp_path, monkeypatch, "fit", 1, {"mlp_d1_0": {"mae": 0.3}}) == {}
    bad = gate(tmp_path, monkeypatch, "fit", 1, {"mlp_d1_0": {"mae": 0.511}})
    assert "mae" in bad["mlp_d1_0"] and "seed 1's reference" in bad["mlp_d1_0"]


def test_referenced_seed_needs_the_same_changepoint_count(tmp_path, monkeypatch):
    ok = {"steps0_l2": {"changepoints": 24, "locate_rows": 0.6}}
    assert gate(tmp_path, monkeypatch, "detect", 1, ok) == {}
    assert gate(tmp_path, monkeypatch, "detect", 1,
                {"steps0_l2": {"changepoints": 23, "locate_rows": 0.1}})
    assert gate(tmp_path, monkeypatch, "detect", 1,
                {"steps0_l2": {"changepoints": 24, "locate_rows": 0.61}})


def test_every_seed_runs_a_referenced_input_seed():
    assert [run.input_seed(s) for s in (0, 31, 32, 33, 1074278688)] == [0, 31, 0, 1, 0]
    table = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    for workload in run.WORKLOADS:
        assert sorted(map(int, table[workload])) == list(range(run.REFERENCE_SEEDS))


def test_a_seed_without_reference_fails(tmp_path, monkeypatch):
    bad = gate(tmp_path, monkeypatch, "fit", 7, {"mlp_d1_0": {"mae": 0.45}})
    assert "no reference" in bad["mlp_d1_0"]


def test_a_figure_without_reference_fails(tmp_path, monkeypatch):
    bad = gate(tmp_path, monkeypatch, "fit", 1, {"lasso_d1_0": {"mae": 0.2}})
    assert "no reference" in bad["lasso_d1_0"]


def test_a_hung_command_is_a_failed_record(tmp_path, monkeypatch):
    hang = tmp_path / "hang.py"
    hang.write_text("import time\ntime.sleep(30)\n", encoding="utf-8")
    monkeypatch.setattr(run, "CHILD", hang)
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    rec = run.run_child([], tmp_path, "0", tmp_path / "record.json")
    assert rec["returncode"] != 0
    assert "timed out" in rec["stderr"]
    assert 0.5 <= rec["wall_s"] < 10
