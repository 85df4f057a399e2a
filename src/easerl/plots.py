"""Dependency-free SVG plots.

Every figure is assembled from text fragments and written as a standalone
.svg file: trajectory overlays on the field, learning curves, and parameter
landscape heatmaps.  Outputs are deterministic functions of their inputs.
"""

from __future__ import annotations

import numpy as np

from .geometry import RegionSet

_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)
_TICKS = 5  # tick intervals per axis


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


class SvgCanvas:
    """Minimal SVG accumulator with a linear data-to-pixel transform."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self._parts: list[str] = []
        self._xa = 1.0
        self._xb = 0.0
        self._ya = -1.0
        self._yb = float(height)

    def set_view(self, x0, x1, y0, y1, margin: int = 40) -> None:
        """Map data box [x0,x1]x[y0,y1] into the canvas minus a margin."""
        span_x = x1 - x0 if x1 > x0 else 1.0
        span_y = y1 - y0 if y1 > y0 else 1.0
        self._xa = (self.width - 2 * margin) / span_x
        self._xb = margin - x0 * self._xa
        self._ya = -(self.height - 2 * margin) / span_y
        self._yb = (self.height - margin) - y0 * self._ya
        self._view = (x0, x1, y0, y1, margin)

    def px(self, x: float) -> float:
        return self._xa * x + self._xb

    def py(self, y: float) -> float:
        return self._ya * y + self._yb

    def rect_data(self, x0, y0, x1, y1, fill, opacity=1.0, stroke="none") -> None:
        xa, xb = sorted((self.px(x0), self.px(x1)))
        ya, yb = sorted((self.py(y0), self.py(y1)))
        self._parts.append(
            f'<rect x="{xa:.1f}" y="{ya:.1f}" width="{xb - xa:.1f}" '
            f'height="{yb - ya:.1f}" fill="{fill}" fill-opacity="{opacity:g}" '
            f'stroke="{stroke}"/>'
        )

    def polygon_data(self, xy, fill, opacity=0.6, stroke="#333") -> None:
        pts = " ".join(f"{self.px(x):.1f},{self.py(y):.1f}" for x, y in xy)
        self._parts.append(
            f'<polygon points="{pts}" fill="{fill}" fill-opacity="{opacity:g}" stroke="{stroke}"/>'
        )

    def polyline_data(self, xs, ys, color, width=1.5, dash="") -> None:
        pts = " ".join(f"{self.px(x):.1f},{self.py(y):.1f}" for x, y in zip(xs, ys))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self._parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width:g}"{extra}/>'
        )

    def circle_data(self, x, y, r_px, color) -> None:
        self._parts.append(
            f'<circle cx="{self.px(x):.1f}" cy="{self.py(y):.1f}" r="{r_px:g}" fill="{color}"/>'
        )

    def text_px(self, x, y, s, size=12, anchor="start", color="#222") -> None:
        self._parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}" fill="{color}">{s}</text>'
        )

    def axes(self, xlabel: str = "", ylabel: str = "") -> None:
        x0, x1, y0, y1, margin = self._view
        left, right = self.px(x0), self.px(x1)
        top, bottom = self.py(y1), self.py(y0)
        self._parts.append(
            f'<line x1="{left:.1f}" y1="{bottom:.1f}" x2="{right:.1f}" y2="{bottom:.1f}" stroke="#444"/>'
        )
        self._parts.append(
            f'<line x1="{left:.1f}" y1="{bottom:.1f}" x2="{left:.1f}" y2="{top:.1f}" stroke="#444"/>'
        )
        for i in range(_TICKS + 1):
            tx = x0 + (x1 - x0) * i / _TICKS
            ty = y0 + (y1 - y0) * i / _TICKS
            self.text_px(self.px(tx), bottom + 14, _fmt(tx), size=10, anchor="middle")
            self.text_px(left - 4, self.py(ty) + 3, _fmt(ty), size=10, anchor="end")
        if xlabel:
            self.text_px((left + right) / 2, self.height - 6, xlabel, anchor="middle")
        if ylabel:
            self.text_px(12, top - 8, ylabel)

    def legend(self, entries, x_px=None) -> None:
        x = x_px if x_px is not None else self.width - 150
        for i, (label, color) in enumerate(entries):
            yy = 20 + 16 * i
            self._parts.append(
                f'<line x1="{x}" y1="{yy:.1f}" x2="{x + 20}" y2="{yy:.1f}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            self.text_px(x + 26, yy + 4, label, size=11)

    def title(self, s: str) -> None:
        self.text_px(self.width / 2, 16, s, size=14, anchor="middle")

    def render(self) -> str:
        body = "\n".join(self._parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.render())


def _draw_region(canvas: SvgCanvas, region: RegionSet | None) -> None:
    if region is None:
        return
    for part in region.parts:
        canvas.polygon_data(part.vertices, fill="#c44", opacity=0.45)


def plot_trajectories(
    trajectories,
    labels,
    region: RegionSet | None,
    path,
    title: str = "",
    goal_xy=None,
    field_half: float = 10.0,
) -> None:
    """Overlay x-y trajectories on the field with the barrier region shaded."""
    canvas = SvgCanvas(560, 560)
    canvas.set_view(-field_half, field_half, -field_half, field_half)
    canvas.rect_data(-field_half, -field_half, field_half, field_half, "#f7f7f7")
    _draw_region(canvas, region)
    entries = []
    for i, (traj, label) in enumerate(zip(trajectories, labels)):
        color = _COLORS[i % len(_COLORS)]
        xs = [p[0] for p in traj.states]
        ys = [p[1] for p in traj.states]
        canvas.polyline_data(xs, ys, color, width=2.0)
        canvas.circle_data(xs[0], ys[0], 4, color)
        entries.append((label, color))
    if goal_xy is not None:
        canvas.circle_data(goal_xy[0], goal_xy[1], 5, "#2c2")
    canvas.axes(xlabel="x", ylabel="y")
    canvas.legend(entries)
    if title:
        canvas.title(title)
    canvas.save(path)


def plot_curves(curves, labels, path, title: str = "") -> None:
    """Learning curves: each curve is a sequence of (step, value) pairs."""
    canvas = SvgCanvas(640, 420)
    xs_all = [s for curve in curves for s, _ in curve]
    ys_all = [v for curve in curves for _, v in curve]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    pad = 0.05 * (y1 - y0 if y1 > y0 else 1.0)
    canvas.set_view(x0, x1 if x1 > x0 else x0 + 1, y0 - pad, y1 + pad, margin=50)
    entries = []
    for i, (curve, label) in enumerate(zip(curves, labels)):
        color = _COLORS[i % len(_COLORS)]
        if curve:
            canvas.polyline_data([s for s, _ in curve], [v for _, v in curve], color)
        entries.append((label, color))
    canvas.axes(xlabel="steps", ylabel="return")
    canvas.legend(entries, x_px=canvas.width - 170)
    if title:
        canvas.title(title)
    canvas.save(path)


def _heat_color(t: float) -> str:
    """Map t in [0,1] to a blue-white-red ramp."""
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        u = t / 0.5
        r, g, b = int(40 + 215 * u), int(80 + 175 * u), 255
    else:
        u = (t - 0.5) / 0.5
        r, g, b = 255, int(255 - 200 * u), int(255 - 225 * u)
    return f"#{r:02x}{g:02x}{b:02x}"


def plot_landscape(
    thetas: np.ndarray,
    loss: np.ndarray,
    path,
    title: str = "",
    theta_source=None,
    theta_target=None,
    vmin: float | None = None,
    vmax: float | None = None,
) -> None:
    """Heatmap of loss over the 2-D parameter grid, with an optional
    source-to-target segment overlaid."""
    thetas = np.asarray(thetas, dtype=float)
    loss = np.asarray(loss, dtype=float)
    n = thetas.shape[0]
    step = thetas[1] - thetas[0] if n > 1 else 1.0
    lo = float(thetas[0]) - step / 2
    hi = float(thetas[-1]) + step / 2
    canvas = SvgCanvas(560, 560)
    canvas.set_view(lo, hi, lo, hi, margin=50)
    finite = loss[np.isfinite(loss)]
    v0 = vmin if vmin is not None else (float(finite.min()) if finite.size else 0.0)
    v1 = vmax if vmax is not None else (float(finite.max()) if finite.size else 1.0)
    span = v1 - v0 if v1 > v0 else 1.0
    for i in range(n):
        for j in range(n):
            v = loss[i, j]
            t = (float(v) - v0) / span if np.isfinite(v) else 1.0
            canvas.rect_data(
                thetas[i] - step / 2,
                thetas[j] - step / 2,
                thetas[i] + step / 2,
                thetas[j] + step / 2,
                _heat_color(t),
            )
    if theta_source is not None and theta_target is not None:
        canvas.polyline_data(
            [theta_source[0], theta_target[0]],
            [theta_source[1], theta_target[1]],
            "#000",
            width=2.0,
            dash="5,3",
        )
        canvas.circle_data(theta_source[0], theta_source[1], 5, "#000")
        canvas.circle_data(theta_target[0], theta_target[1], 5, "#060")
    canvas.axes(xlabel="theta 1", ylabel="theta 2")
    canvas.text_px(canvas.width - 10, 20, f"min {v0:.1f}", size=10, anchor="end")
    canvas.text_px(canvas.width - 10, 34, f"max {v1:.1f}", size=10, anchor="end")
    if title:
        canvas.title(title)
    canvas.save(path)
