"""Self-time arithmetic of the benchmark's span recorder.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


def span(id, parent, start, end, name="x"):
    return {"id": id, "parent": parent, "start": start, "end": end, "name": name}


def test_leaf_self_time_is_its_duration():
    assert spans.self_time([span(0, None, 1.0, 4.0)]) == {0: 3.0}


def test_nested_children_count_only_against_their_parent():
    tree = [span(0, None, 0.0, 10.0),
            span(1, 0, 2.0, 8.0),        # child of the root
            span(2, 1, 3.0, 5.0)]        # grandchild: not subtracted from the root
    assert spans.self_time(tree) == {0: 4.0, 1: 4.0, 2: 2.0}


def test_siblings_are_summed():
    tree = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 0, 5.0, 9.0)]
    assert spans.self_time(tree)[0] == pytest.approx(4.0)


def test_zero_length_children_take_nothing():
    tree = [span(0, None, 0.0, 5.0), span(1, 0, 2.0, 2.0), span(2, 0, 5.0, 5.0)]
    assert spans.self_time(tree) == {0: 5.0, 1: 0.0, 2: 0.0}


def test_recorder_builds_the_tree_and_summarize_adds_it_up():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap(lambda: None, "pipeline.run")

    def outer():
        inner()
        inner()

    rec.wrap(outer, "cli.main")()
    # cli.main [0, 5]; pipeline.run [1, 2] and [3, 4]
    assert [(s["name"], s["parent"], s["start"], s["end"]) for s in rec.spans] == [
        ("cli.main", None, 0.0, 5.0),
        ("pipeline.run", 0, 1.0, 2.0),
        ("pipeline.run", 0, 3.0, 4.0)]
    totals = spans.summarize(rec.spans, {"changepoint.steps": 7})
    assert totals["cli.main.s"] == 5.0
    assert totals["cli.main.self_s"] == 3.0
    assert totals["pipeline.run.calls"] == 2
    assert totals["pipeline.run.self_s"] == 2.0
    assert totals["changepoint.steps"] == 7


def test_span_closes_when_the_call_raises():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        rec.wrap(boom, "x")()
    assert rec.spans[0]["end"] == 1.0
    assert rec.wrap(lambda: 1, "y")() == 1
    assert rec.spans[1]["parent"] is None
