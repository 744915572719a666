"""Self-contained SVG line charts, no external renderer.

Just enough to eyeball simulation output: stacked panels, auto-scaled axes,
tick labels, and a legend when a panel holds more than one series. Long
series are decimated to keep files small; decimation is deterministic, so
repeated runs emit identical bytes. The module does no file I/O:
``write_chart`` writes to a text handle that its caller opens and closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, TextIO

__all__ = ["Panel", "write_chart"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd")
_MAX_POINTS_PER_SERIES = 4000
#: chart width and the height of each stacked panel, in SVG user units
WIDTH, PANEL_HEIGHT = 900, 260


@dataclass
class Panel:
    """One chart panel: named series sharing an x axis."""

    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    series: list[tuple[str, Sequence[float], Sequence[float]]] = field(
        default_factory=list
    )

    def add(self, label: str, xs: Sequence[float], ys: Sequence[float]) -> "Panel":
        """Add a series; it is kept as given, not copied."""
        self.series.append((label, xs, ys))
        return self


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _nice_step(span: float, target_ticks: int = 5) -> float:
    raw = span / max(target_ticks, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return []
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    out = []
    value = first
    while value <= hi + 1e-9 * step:
        out.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return out


def _decimate(xs: Sequence[float], ys: Sequence[float]) -> tuple[list, list]:
    """Every ``stride``-th point plus the last, as lists of the kept points."""
    n = len(xs)
    stride = max(1, -(-n // _MAX_POINTS_PER_SERIES))
    kept_x, kept_y = list(xs[::stride]), list(ys[::stride])
    if (n - 1) % stride:
        kept_x.append(xs[-1])
        kept_y.append(ys[-1])
    return kept_x, kept_y


def _fmt_tick(value: float) -> str:
    if value == int(value) and abs(value) < 1e7:
        return str(int(value))
    return f"{value:.4g}"


def write_chart(handle: TextIO, panels: Sequence[Panel]) -> None:
    """Write stacked line-chart panels to the text ``handle`` as one SVG document."""
    if not panels:
        raise ValueError("need at least one panel")
    margin_left, margin_right = 72, 24
    margin_top, margin_bottom = 34, 44
    total_height = PANEL_HEIGHT * len(panels)
    plot_w = WIDTH - margin_left - margin_right

    out: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{total_height}" viewBox="0 0 {WIDTH} {total_height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    for index, panel in enumerate(panels):
        if not panel.series:
            raise ValueError(f"panel {index} has no series")
        top = index * PANEL_HEIGHT + margin_top
        bottom = (index + 1) * PANEL_HEIGHT - margin_bottom
        plot_h = bottom - top

        data = [_decimate(xs, ys) for _, xs, ys in panel.series]
        all_x = [v for xs, _ in data for v in xs]
        all_y = [v for _, ys in data for v in ys if math.isfinite(v)]
        if not all_x or not all_y:
            raise ValueError(f"panel {index} has no finite data")
        x_lo, x_hi = min(all_x), max(all_x)
        y_lo, y_hi = min(all_y), max(all_y)
        if x_hi == x_lo:
            x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def px(x: float) -> float:
            return margin_left + (x - x_lo) / (x_hi - x_lo) * plot_w

        def py(y: float) -> float:
            return bottom - (y - y_lo) / (y_hi - y_lo) * plot_h

        for tick in _ticks(y_lo, y_hi):
            y = py(tick)
            out.append(
                f'<line x1="{margin_left}" y1="{y:.2f}" x2="{margin_left + plot_w}" '
                f'y2="{y:.2f}" stroke="#e0e0e0" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{margin_left - 8}" y="{y + 4:.2f}" text-anchor="end" '
                f'font-size="12" font-family="sans-serif">{_fmt_tick(tick)}</text>'
            )
        for tick in _ticks(x_lo, x_hi):
            x = px(tick)
            out.append(
                f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" y2="{bottom + 5}" '
                'stroke="#000" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{x:.2f}" y="{bottom + 20}" text-anchor="middle" '
                f'font-size="12" font-family="sans-serif">{_fmt_tick(tick)}</text>'
            )

        out.append(
            f'<rect x="{margin_left}" y="{top}" width="{plot_w}" height="{plot_h}" '
            'fill="none" stroke="#000" stroke-width="1"/>'
        )
        if panel.title:
            out.append(
                f'<text x="{margin_left + plot_w / 2:.1f}" y="{top - 10}" '
                'text-anchor="middle" font-size="15" font-family="sans-serif">'
                f"{_escape(panel.title)}</text>"
            )
        if panel.xlabel:
            out.append(
                f'<text x="{margin_left + plot_w / 2:.1f}" y="{bottom + 36}" '
                'text-anchor="middle" font-size="13" font-family="sans-serif">'
                f"{_escape(panel.xlabel)}</text>"
            )
        if panel.ylabel:
            x_label = 18
            y_label = top + plot_h / 2
            out.append(
                f'<text x="{x_label}" y="{y_label:.1f}" text-anchor="middle" '
                f'font-size="13" font-family="sans-serif" '
                f'transform="rotate(-90 {x_label} {y_label:.1f})">'
                f"{_escape(panel.ylabel)}</text>"
            )

        for s_index, ((label, _, _), (xs, ys)) in enumerate(zip(panel.series, data)):
            color = _COLORS[s_index % len(_COLORS)]
            points = " ".join(
                f"{px(x):.2f},{py(y):.2f}"
                for x, y in zip(xs, ys)
                if math.isfinite(y)
            )
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                f'points="{points}"/>'
            )
            if len(panel.series) > 1 and label:
                lx = margin_left + plot_w - 150
                ly = top + 16 + 16 * s_index
                out.append(
                    f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 20}" y2="{ly - 4}" '
                    f'stroke="{color}" stroke-width="2"/>'
                )
                out.append(
                    f'<text x="{lx + 26}" y="{ly}" font-size="12" '
                    f'font-family="sans-serif">{_escape(label)}</text>'
                )

    out.append("</svg>")
    handle.write("\n".join(out) + "\n")
