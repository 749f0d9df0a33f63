"""Dependency-free SVG plots: fixed-size axes, lines, scatter, bars."""

from __future__ import annotations

import math
from pathlib import Path

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 36, 48
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


class SvgCanvas:
    def __init__(self, width: int = WIDTH, height: int = HEIGHT):
        self.width = width
        self.height = height
        self.elements: list[str] = [
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>'
        ]

    def line(self, x1, y1, x2, y2, color="#333", width=1.0, dash=None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width}"{dash_attr}/>'
        )

    def polyline(self, points, color, width=1.5):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def circle(self, x, y, r, color):
        self.elements.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.1f}" fill="{color}"/>'
        )

    def rect(self, x, y, w, h, color):
        self.elements.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" fill="{color}"/>'
        )

    def text(self, x, y, content, size=12, anchor="start", color="#111"):
        self.elements.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}" fill="{color}">{content}</text>'
        )

    def save(self, path):
        body = "\n".join(self.elements)
        doc = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f"{body}\n</svg>\n"
        )
        Path(path).write_text(doc)


def _plot_area():
    return MARGIN_L, WIDTH - MARGIN_R, MARGIN_T, HEIGHT - MARGIN_B


def _draw_frame(canvas: SvgCanvas, title: str, x_label: str, y_label: str):
    x0, x1, y0, y1 = _plot_area()
    canvas.line(x0, y1, x1, y1)
    canvas.line(x0, y0, x0, y1)
    canvas.text(WIDTH / 2, 20, title, size=14, anchor="middle")
    canvas.text(WIDTH / 2, HEIGHT - 12, x_label, anchor="middle")
    canvas.text(16, HEIGHT / 2, y_label, anchor="middle")


def plot_rate_series(path, series: dict, threshold: float, title: str):
    """Per-slot rates (log10 y-axis) with a dashed threshold line.

    The axis spans the positive rates and threshold, one fixed decade if
    none is positive; zero rates (idle slots) sit on its bottom decade.
    """
    canvas = SvgCanvas()
    _draw_frame(canvas, title, "time slot", "log10 rate [bps]")
    x0, x1, y0, y1 = _plot_area()
    n_slots = max(len(v) for v in series.values())
    positive = [v for vals in (*series.values(), [threshold]) for v in vals if v > 0] or [1.0]
    top = math.ceil(math.log10(max(positive))) + 0.2
    bottom = math.floor(math.log10(min(positive))) - 1.0

    def sx(slot):
        return x0 + (x1 - x0) * slot / max(1, n_slots - 1)

    def sy(rate):
        level = math.log10(rate) if rate > 0 else bottom
        level = min(max(level, bottom), top)
        return y1 - (y1 - y0) * (level - bottom) / (top - bottom)

    for decade in range(int(math.ceil(bottom)), int(top) + 1):
        y = sy(10.0**decade)
        canvas.line(x0, y, x1, y, color="#ddd")
        canvas.text(x0 - 6, y + 4, f"1e{decade}", anchor="end", size=10)
    y_threshold = sy(threshold)
    canvas.line(x0, y_threshold, x1, y_threshold, color="#555", width=1.2, dash="6,4")
    canvas.text(x1, y_threshold - 6, "threshold", anchor="end", size=10, color="#555")

    for i, (label, values) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        canvas.polyline([(sx(t), sy(v)) for t, v in enumerate(values)], color)
        canvas.text(x0 + 8, y0 + 16 + 14 * i, label, size=11, color=color)
    for tick in range(0, n_slots, max(1, n_slots // 6)):
        canvas.text(sx(tick), y1 + 16, str(tick), anchor="middle", size=10)
    canvas.save(path)


def plot_pareto_scatter(path, points_by_label: dict[str, list], title: str):
    """Isometric projection of 3-D objective triples (f1, f2, f3)."""
    canvas = SvgCanvas()
    canvas.text(WIDTH / 2, 20, title, size=14, anchor="middle")
    everything = [p for pts in points_by_label.values() for p in pts]
    if not everything:
        canvas.text(WIDTH / 2, HEIGHT / 2, "empty archive", anchor="middle")
        canvas.save(path)
        return
    lows = [min(p[i] for p in everything) for i in range(3)]
    highs = [max(p[i] for p in everything) for i in range(3)]
    spans = [max(h - l, 1e-12) for l, h in zip(lows, highs)]

    def project(p):
        u = [(p[i] - lows[i]) / spans[i] for i in range(3)]
        iso_x = (u[0] - u[1]) * math.cos(math.pi / 6)
        iso_y = (u[0] + u[1]) * math.sin(math.pi / 6) - u[2]
        x = WIDTH / 2 + iso_x * 200
        y = HEIGHT / 2 - iso_y * 140 + 40
        return x, y

    origin = project((lows[0], lows[1], lows[2]))
    axes = [
        ((highs[0], lows[1], lows[2]), "f1 rate"),
        ((lows[0], highs[1], lows[2]), "f2 energy"),
        ((lows[0], lows[1], highs[2]), "f3 switches"),
    ]
    for endpoint, label in axes:
        tip = project(endpoint)
        canvas.line(origin[0], origin[1], tip[0], tip[1], color="#999")
        canvas.text(tip[0] + 4, tip[1], label, size=10, color="#555")
    for i, (label, pts) in enumerate(points_by_label.items()):
        color = PALETTE[i % len(PALETTE)]
        for p in pts:
            x, y = project(p)
            canvas.circle(x, y, 4, color)
        canvas.text(24, 40 + 14 * i, label, size=11, color=color)
    canvas.save(path)


def plot_objective_bars(path, labels: list[str], triples: list, title: str):
    """Grouped bars, one group per objective, normalized to the group max."""
    canvas = SvgCanvas()
    _draw_frame(canvas, title, "optimization objective", "relative value")
    x0, x1, y0, y1 = _plot_area()
    names = ["f1 rate [bps]", "f2 energy [J]", "f3 switches"]
    n_groups, n_bars = 3, len(labels)
    group_width = (x1 - x0) / n_groups
    bar_width = group_width * 0.7 / max(1, n_bars)
    for g in range(n_groups):
        peak = max(max(abs(t[g]) for t in triples), 1e-12)
        base_x = x0 + g * group_width + group_width * 0.15
        for i, triple in enumerate(triples):
            frac = abs(triple[g]) / peak
            h = (y1 - y0) * frac
            canvas.rect(base_x + i * bar_width, y1 - h, bar_width * 0.9, h,
                        PALETTE[i % len(PALETTE)])
        canvas.text(x0 + g * group_width + group_width / 2, y1 + 16,
                    names[g], anchor="middle", size=10)
    for i, label in enumerate(labels):
        canvas.text(x0 + 8, y0 + 16 + 14 * i, label, size=11,
                    color=PALETTE[i % len(PALETTE)])
    canvas.save(path)
