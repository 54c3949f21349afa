"""Seeded synthetic interest-rate series with controlled drift injection.

The generative model is additive: a base level, calendar-phased daily and
weekly sinusoids, the configured drift events (sudden steps and saturating
linear ramps), and Gaussian noise. Ground truth for every injected event
is emitted alongside the data so detector accuracy can be scored against
known drift instants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DriftcastError
from .frame import HOUR, TimeSeriesFrame, _check_epoch, _parse_timestamp, hourly_axis

TARGET_COLUMN = "interest_rate"

SUDDEN = "sudden"
GRADUAL = "gradual"


def _check_finite(name: str, value) -> None:
    try:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise DriftcastError(f"{name} must be a finite number, got {value!r}")


def _check_keys(what: str, d: dict, cls) -> None:
    unknown = sorted(d.keys() - {f.name for f in fields(cls)})
    if unknown:
        raise DriftcastError(f"unknown {what} key {unknown[0]!r}")


def _as_epoch(name: str, value) -> int:
    if isinstance(value, str):
        return _parse_timestamp(value)
    _check_finite(name, value)
    _check_epoch(value, name, value)  # before generate allocates the hourly axis
    return int(value)


@dataclass(frozen=True)
class DriftEvent:
    """One injected drift: a step (``sudden``) or a bounded ramp (``gradual``).

    A sudden event adds ``jump`` from instant ``at`` onward. A gradual
    event ramps linearly from 0 to ``total_shift`` over ``duration_hours``
    starting at ``at``, then holds.
    """

    kind: str
    at: int  # epoch seconds; ISO-8601 strings accepted and converted
    jump: float = 0.0
    total_shift: float = 0.0
    duration_hours: int = 0

    def __post_init__(self):
        object.__setattr__(self, "at", _as_epoch("at", self.at))
        if self.kind not in (SUDDEN, GRADUAL):
            raise DriftcastError(f"kind must be '{SUDDEN}' or '{GRADUAL}', got {self.kind!r}")
        for name in ("jump", "total_shift", "duration_hours"):
            _check_finite(name, getattr(self, name))
        if self.kind == GRADUAL and self.duration_hours < 1:
            raise DriftcastError("gradual events need duration_hours >= 1")

    def contribution(self, ts: np.ndarray) -> np.ndarray:
        hours_since = (ts - self.at) / HOUR
        if self.kind == SUDDEN:
            return np.where(hours_since >= 0, self.jump, 0.0)
        frac = np.clip(hours_since / self.duration_hours, 0.0, 1.0)
        return frac * self.total_shift

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "at": self.at}
        if self.kind == SUDDEN:
            d["jump"] = self.jump
        else:
            d["total_shift"] = self.total_shift
            d["duration_hours"] = self.duration_hours
        return d


def default_events() -> tuple[DriftEvent, ...]:
    """One macro-shock step in early 2023 plus a slow 180-day ramp in 2021."""
    return (
        DriftEvent(GRADUAL, "2021-03-01T00:00", total_shift=1.0,
                   duration_hours=180 * 24),
        DriftEvent(SUDDEN, "2023-02-01T00:00", jump=2.0),
    )


@dataclass(frozen=True)
class SynthConfig:
    """Defaults give a 4-year hourly series with one slow ramp and one step.

    Seasonal amplitudes are deliberately small next to the noise floor: a
    mean-shift cost reads strong periodic structure as a procession of
    changepoints, and the no-drift configuration must stay quiet under the
    default penalty for fallback behavior to be testable.
    """

    start: int = _parse_timestamp("2020-01-01T00:00")
    end: int = _parse_timestamp("2023-12-31T23:00")
    base_level: float = 3.0
    daily_amplitude: float = 0.08
    weekly_amplitude: float = 0.02
    noise_std: float = 0.15
    events: tuple[DriftEvent, ...] = field(default_factory=default_events)
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "start", _as_epoch("start", self.start))
        object.__setattr__(self, "end", _as_epoch("end", self.end))
        object.__setattr__(self, "events", tuple(self.events))
        for name in ("base_level", "daily_amplitude", "weekly_amplitude", "noise_std"):
            _check_finite(name, getattr(self, name))
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise DriftcastError(f"seed must be an integer >= 0, got {seed!r}")
        if self.start >= self.end:
            raise DriftcastError("start must precede end")
        if not self.noise_std >= 0:
            raise DriftcastError("noise_std must be >= 0")
        for ev in self.events:
            if not self.start <= ev.at <= self.end:
                raise DriftcastError(f"event at epoch {ev.at} outside the series range")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["events"] = [ev.to_dict() for ev in self.events]
        return d

    @staticmethod
    def from_dict(d: dict) -> "SynthConfig":
        raw = d.get("events", []) if isinstance(d, dict) else None
        if not (isinstance(raw, list)
                and all(isinstance(ev, dict) and {"kind", "at"} <= ev.keys() for ev in raw)):
            raise DriftcastError("a synth config is an object, and each of its events needs kind and at")
        _check_keys("synth config", d, SynthConfig)
        for ev in raw:
            _check_keys("event", ev, DriftEvent)
        kwargs = dict(d)
        if "events" in d:
            kwargs["events"] = tuple(DriftEvent(**ev) for ev in raw)
        return SynthConfig(**kwargs)


def generate(config: SynthConfig | None = None) -> TimeSeriesFrame:
    """Hourly series start..end inclusive; same config and seed, same bits.

    Seasonal phases follow the calendar (hour of day, hour of week) so
    the cyclic feature encodings line up with the true periodic signal.
    """
    config = config or SynthConfig()
    ts = hourly_axis(config.start, config.end)
    hod = (ts % 86400) / 3600.0
    how = ((ts // 3600) + 72) % 168  # hours since Monday 00:00

    values = np.full(ts.size, config.base_level, dtype=float)
    values += config.daily_amplitude * np.sin(2.0 * math.pi * hod / 24.0)
    values += config.weekly_amplitude * np.sin(2.0 * math.pi * how / 168.0)
    for ev in config.events:
        values += ev.contribution(ts)
    rng = np.random.default_rng(config.seed)
    values += rng.normal(0.0, config.noise_std, ts.size)
    return TimeSeriesFrame(ts, {TARGET_COLUMN: values})


def ground_truth(config: SynthConfig) -> dict:
    """Sidecar payload: the full config plus true event row indices."""
    events = []
    for ev in config.events:
        d = ev.to_dict()
        d["at_index"] = int((ev.at - config.start) // HOUR)
        events.append(d)
    n = int((config.end - config.start) // HOUR) + 1
    return {"config": config.to_dict(), "events": events,
            "n": n, "column": TARGET_COLUMN}
