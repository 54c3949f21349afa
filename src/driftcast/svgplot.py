"""Hand-emitted SVG figures: line plots, loss curves, grouped metric bars.

Text-only emission keeps plots dependency-free, diffable in tests and
byte-identical across runs (no metadata, no timestamps). Long series are
stride-downsampled to at most ``MAX_POINTS`` vertices per polyline.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta

import numpy as np

MAX_POINTS = 2500
PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
MARKER_COLOR = "#d62728"

_EPOCH = datetime(1970, 1, 1)


def _fmt_num(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.4g}"


def _fmt_time(seconds: float) -> str:
    return (_EPOCH + timedelta(seconds=float(seconds))).strftime("%Y-%m-%d")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _finite_range(arrays) -> tuple[float, float]:
    """Least and greatest finite value over ``arrays``; (0, 1) if there is none."""
    values = np.concatenate([np.empty(0), *arrays])
    values = values[np.isfinite(values)]
    return (float(values.min()), float(values.max())) if values.size else (0.0, 1.0)


def _escape(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def text(self, x, y, s, size=12, anchor="start", color="#333", rotate=None):
        transform = f' transform="rotate({rotate} {x:.1f} {y:.1f})"' if rotate else ""
        self.parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="{color}"{transform}>{_escape(s)}</text>')

    def line(self, x1, y1, x2, y2, color="#999", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{color}" stroke-width="{width}"{d}/>')

    def polyline(self, pts, color, width=1.2):
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')

    def rect(self, x, y, w, h, color):
        self.parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
            f'fill="{color}"/>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _downsample(xs: np.ndarray, ys: np.ndarray):
    if xs.size <= MAX_POINTS:
        return xs, ys
    stride = int(math.ceil(xs.size / MAX_POINTS))
    idx = np.arange(0, xs.size, stride)
    if idx[-1] != xs.size - 1:
        idx = np.append(idx, xs.size - 1)
    return xs[idx], ys[idx]


def line_plot(series, title="", xlabel="", ylabel="", vlines=(),
              x_is_time=False, width=960, height=400) -> str:
    """One panel of overlaid lines with optional vertical event markers.

    ``series`` is a list of (label, xs, ys); ``vlines`` a list of x
    positions drawn as dashed vertical markers (detected changepoints,
    true drift instants, ...).
    """
    margin_l, margin_r, margin_t, margin_b = 70, 20, 34, 50
    c = _Canvas(width, height)
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    cleaned = []
    for label, xs, ys in series:
        xs = np.asarray(xs, float)
        ys = np.asarray(ys, float)
        xs, ys = _downsample(xs, ys)
        cleaned.append((label, xs, ys))

    x_lo, x_hi = _finite_range([xs for _, xs, _ in cleaned])
    y_lo, y_hi = _finite_range([ys for _, _, ys in cleaned])
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def sx(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    for tick in _ticks(y_lo, y_hi):
        c.line(margin_l, sy(tick), width - margin_r, sy(tick), color="#eee")
        c.text(margin_l - 6, sy(tick) + 4, _fmt_num(tick), size=10, anchor="end")
    for tick in _ticks(x_lo, x_hi):
        label = _fmt_time(tick) if x_is_time else _fmt_num(tick)
        c.text(sx(tick), height - margin_b + 16, label, size=10, anchor="middle")
    c.line(margin_l, margin_t, margin_l, height - margin_b)
    c.line(margin_l, height - margin_b, width - margin_r, height - margin_b)

    for x in vlines:
        c.line(sx(float(x)), margin_t, sx(float(x)), height - margin_b,
               color=MARKER_COLOR, width=1.0, dash="4,3")

    for i, (label, xs, ys) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        pts = [(sx(x), sy(y)) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
        if pts:
            c.polyline(pts, color)
        c.text(margin_l + 10 + 150 * i, margin_t - 8, label, size=11, color=color)

    if title:
        c.text(width / 2, 16, title, size=13, anchor="middle")
    if xlabel:
        c.text(width / 2, height - 10, xlabel, size=11, anchor="middle")
    if ylabel:
        c.text(16, height / 2, ylabel, size=11, anchor="middle", rotate=-90)
    return c.render()


def grouped_bars(panels, title="", width=960, panel_height=240) -> str:
    """Vertically stacked bar panels, one per metric (MAE / RMSE / R^2).

    ``panels`` is a list of (metric_name, [(bar_label, value), ...]).
    Negative values (possible for R^2) hang below the zero line.
    """
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 60
    height = margin_t + panel_height * len(panels) + margin_b
    c = _Canvas(width, height)
    plot_w = width - margin_l - margin_r

    for p, (metric, bars) in enumerate(panels):
        top = margin_t + p * panel_height
        inner_h = panel_height - 58
        values = [v for _, v in bars]
        v_lo = min(0.0, min(values, default=0.0))
        v_hi = max(0.0, max(values, default=1.0))
        if v_hi == v_lo:
            v_hi = v_lo + 1.0
        span = v_hi - v_lo

        def sy(v, top=top, v_hi=v_hi, span=span, inner_h=inner_h):
            return top + (v_hi - v) / span * inner_h

        c.text(margin_l, top - 6, metric, size=12, color="#111")
        for tick in _ticks(v_lo, v_hi, 4):
            c.line(margin_l, sy(tick), width - margin_r, sy(tick), color="#eee")
            c.text(margin_l - 6, sy(tick) + 4, _fmt_num(tick), size=10, anchor="end")
        c.line(margin_l, sy(0.0), width - margin_r, sy(0.0), color="#999")

        n = max(len(bars), 1)
        slot = plot_w / n
        bar_w = min(slot * 0.55, 80.0)
        for i, (label, value) in enumerate(bars):
            x = margin_l + slot * i + (slot - bar_w) / 2
            y0, y1 = sy(max(value, 0.0)), sy(min(value, 0.0))
            c.rect(x, y0, bar_w, max(y1 - y0, 0.5), PALETTE[i % len(PALETTE)])
            c.text(x + bar_w / 2, sy(max(value, 0.0)) - 4, _fmt_num(value),
                   size=9, anchor="middle")
            c.text(x + bar_w / 2, top + inner_h + 14, label, size=9, anchor="middle")

    if title:
        c.text(width / 2, 18, title, size=13, anchor="middle")
    return c.render()
