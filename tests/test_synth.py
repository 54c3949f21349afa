import numpy as np
import pytest

from driftcast.changepoint import default_penalty, pelt_detect
from driftcast.errors import DriftcastError
from driftcast.frame import HOUR, _parse_timestamp
from driftcast.synth import (
    GRADUAL,
    SUDDEN,
    DriftEvent,
    SynthConfig,
    generate,
    ground_truth,
)

TARGET = "interest_rate"


def quiet_config(**kw):
    base = dict(start="2020-01-01T00:00", end="2020-04-30T23:00",
                daily_amplitude=0.0, weekly_amplitude=0.0, noise_std=0.0,
                events=(), seed=0)
    base.update(kw)
    return SynthConfig(**base)


class TestGenerate:
    def test_default_row_count(self):
        frame = generate(SynthConfig())
        assert frame.n == 35_064  # 4 years incl. a leap year, through 23:00
        assert list(frame.columns) == [TARGET]
        assert frame.is_hourly()

    def test_bit_identical_for_same_seed(self):
        a = generate(SynthConfig(seed=5))
        b = generate(SynthConfig(seed=5))
        assert np.array_equal(a.column(TARGET), b.column(TARGET))
        c = generate(SynthConfig(seed=6))
        assert not np.array_equal(a.column(TARGET), c.column(TARGET))

    def test_everything_off_gives_constant(self):
        frame = generate(quiet_config(base_level=2.5))
        np.testing.assert_array_equal(frame.column(TARGET), 2.5)

    def test_sudden_step_construction(self):
        at = "2020-03-01T00:00"
        frame = generate(quiet_config(events=(DriftEvent(SUDDEN, at, jump=2.0),)))
        v = frame.column(TARGET)
        k = int((_parse_timestamp(at) - frame.timestamps[0]) // HOUR)
        assert v[k] - v[k - 1] == 2.0
        assert np.all(v[:k] == v[0])
        assert np.all(v[k:] == v[0] + 2.0)

    def test_gradual_ramp_saturates(self):
        at = "2020-02-01T00:00"
        dur = 240
        frame = generate(quiet_config(
            events=(DriftEvent(GRADUAL, at, total_shift=1.5, duration_hours=dur),)))
        v = frame.column(TARGET) - frame.column(TARGET)[0]
        k = int((_parse_timestamp(at) - frame.timestamps[0]) // HOUR)
        assert v[k] == 0.0
        assert abs(v[k + dur // 2] - 0.75) < 1e-12
        assert np.all(v[k + dur:] == 1.5)
        ramp = v[k:k + dur + 1]
        steps = np.diff(ramp)
        np.testing.assert_allclose(steps, 1.5 / dur, atol=1e-12)

    def test_default_jump_visible_in_sample_means(self):
        cfg = SynthConfig(seed=42)
        frame = generate(cfg)
        gt = ground_truth(cfg)
        k = [e["at_index"] for e in gt["events"] if e["kind"] == SUDDEN][0]
        w = 14 * 24  # same-phase fortnight windows on each side
        before = frame.column(TARGET)[k - w:k].mean()
        after = frame.column(TARGET)[k:k + w].mean()
        tol = 3 * cfg.noise_std / np.sqrt(w) + 0.05  # noise + ramp-free seasonal slack
        assert abs((after - before) - 2.0) < tol

    def test_event_outside_range_rejected(self):
        with pytest.raises(DriftcastError, match="event at epoch 1609459200 outside the series"):
            SynthConfig(start="2020-01-01T00:00", end="2020-02-01T00:00",
                        events=(DriftEvent(SUDDEN, "2021-01-01T00:00", jump=1.0),))

    def test_reversed_range_rejected(self):
        with pytest.raises(DriftcastError, match="start must precede end"):
            SynthConfig(start="2021-01-01T00:00", end="2020-01-01T00:00")


class TestGroundTruth:
    def test_sidecar_indices(self):
        cfg = SynthConfig()
        gt = ground_truth(cfg)
        assert gt["n"] == 35_064
        assert gt["column"] == TARGET
        kinds = {e["kind"] for e in gt["events"]}
        assert kinds == {SUDDEN, GRADUAL}
        for ev in gt["events"]:
            assert 0 <= ev["at_index"] < gt["n"]
            assert cfg.start + ev["at_index"] * HOUR == ev["at"]

    def test_config_round_trip(self):
        cfg = SynthConfig(seed=9, noise_std=0.2)
        back = SynthConfig.from_dict(cfg.to_dict())
        assert back == cfg


class TestDetectionProperties:
    """Scaled-down versions of the detection contract on generated data."""

    def scaled(self, seed, with_jump):
        events = (DriftEvent(SUDDEN, "2020-03-15T00:00", jump=2.0),) if with_jump else ()
        return SynthConfig(start="2020-01-01T00:00", end="2020-05-31T23:00",
                           events=events, seed=seed)

    def test_no_events_mostly_no_changepoints(self):
        quiet = 0
        for seed in range(10):
            frame = generate(self.scaled(seed, with_jump=False))
            y = frame.column(TARGET)
            seg = pelt_detect(y, beta=default_penalty(y))
            quiet += seg.m == 0
        assert quiet >= 9

    def test_jump_located_within_24h(self):
        hits = 0
        for seed in range(10):
            cfg = self.scaled(seed, with_jump=True)
            frame = generate(cfg)
            truth = ground_truth(cfg)["events"][0]["at_index"]
            y = frame.column(TARGET)
            seg = pelt_detect(y, beta=default_penalty(y))
            if seg.m and min(abs(c - truth) for c in seg.changepoints) <= 24:
                hits += 1
        assert hits >= 9
