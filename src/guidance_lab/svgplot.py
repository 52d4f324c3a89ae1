"""Dependency-free deterministic SVG rendering for scatter and sweep plots.

Fixed 800x600 canvas, fixed palette, circle markers of radius 2, axes
with tick labels.  Identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import math
import os
from xml.sax.saxutils import escape

__all__ = ["PALETTE", "render_scatter", "render_sweep", "write_svg"]

WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT = 70, 20
MARGIN_TOP, MARGIN_BOTTOM = 40, 50
POINT_RADIUS = 2

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About six round ticks across [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        lo, hi = 0.0, 1.0
    span = hi - lo
    raw = span / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    value = start
    while value <= hi + 1e-9 * span:
        ticks.append(round(value, 12))
        value += step
    return ticks


class _Canvas:
    """Data-space to pixel-space mapping plus SVG assembly."""

    def __init__(self, x_range, y_range, title: str):
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        if self.x_hi <= self.x_lo:
            self.x_lo, self.x_hi = self.x_lo - 0.5, self.x_lo + 0.5
        if self.y_hi <= self.y_lo:
            self.y_lo, self.y_hi = self.y_lo - 0.5, self.y_lo + 0.5
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
        ]

    def px(self, x: float) -> float:
        inner = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        return MARGIN_LEFT + (x - self.x_lo) / (self.x_hi - self.x_lo) * inner

    def py(self, y: float) -> float:
        inner = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        return HEIGHT - MARGIN_BOTTOM - (y - self.y_lo) / (self.y_hi - self.y_lo) * inner

    def axes(self):
        x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
        x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
        self.parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>'
        )
        self.parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>'
        )
        for tick in _nice_ticks(self.x_lo, self.x_hi):
            if not self.x_lo <= tick <= self.x_hi:
                continue
            px = self.px(tick)
            self.parts.append(
                f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{_fmt(px)}" y="{y0 + 20}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
            )
        for tick in _nice_ticks(self.y_lo, self.y_hi):
            if not self.y_lo <= tick <= self.y_hi:
                continue
            py = self.py(tick)
            self.parts.append(
                f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
            )

    def circle(self, x, y, color):
        self.parts.append(
            f'<circle cx="{_fmt(self.px(x))}" cy="{_fmt(self.py(y))}" '
            f'r="{POINT_RADIUS}" fill="{color}" fill-opacity="0.75"/>'
        )

    def polyline(self, points, color):
        coords = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )

    def legend(self, labels):
        for i, (label, color) in enumerate(labels):
            y = MARGIN_TOP + 14 + 16 * i
            x = WIDTH - MARGIN_RIGHT - 150
            self.parts.append(f'<rect x="{x}" y="{y - 9}" width="10" height="10" fill="{color}"/>')
            self.parts.append(f'<text x="{x + 16}" y="{y}" font-family="sans-serif" '
                              f'font-size="12">{escape(label)}</text>')

    def document(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _data_range(values):
    """The values' span, padded by 5% on each side."""
    if not values:
        return 0.0, 1.0
    lo, hi = min(values), max(values)
    pad = (hi - lo) * 0.05 or 0.5
    return lo - pad, hi + pad


def _render(groups: dict[str, list[tuple[float, float]]], title: str, lines: bool) -> str:
    """Circles in one palette color per group, with ``lines`` a polyline
    through each group's sorted points under them; empty input gives bare axes.
    A point with a NaN or infinite coordinate is left out, axes included."""
    groups = {label: [(x, y) for x, y in pts if math.isfinite(x) and math.isfinite(y)]
              for label, pts in groups.items()}
    xs = [p[0] for pts in groups.values() for p in pts]
    ys = [p[1] for pts in groups.values() for p in pts]
    canvas = _Canvas(_data_range(xs), _data_range(ys), title)
    canvas.axes()
    labels = []
    for i, (label, pts) in enumerate(groups.items()):
        color = PALETTE[i % len(PALETTE)]
        labels.append((label, color))
        if lines:
            pts = sorted(pts)
            canvas.polyline(pts, color)
        for x, y in pts:
            canvas.circle(x, y, color)
    if labels:
        canvas.legend(labels)
    return canvas.document()


def render_scatter(groups: dict[str, list[tuple[float, float]]], title: str = "samples") -> str:
    """2D scatter, one palette color per group; empty input gives bare axes."""
    return _render(groups, title, lines=False)


def render_sweep(series: dict[str, list[tuple[float, float]]], title: str = "norm sweep") -> str:
    """One polyline per strategy over (omega, mean norm) pairs."""
    return _render(series, title, lines=True)


def write_svg(document: str, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(document)
