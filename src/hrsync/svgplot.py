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


def _text(x, y, size: int, body: str, anchor: str = "middle", extra: str = "") -> str:
    """A ``<text>`` element with ``body`` escaped, no ``text-anchor`` when
    ``anchor`` is empty, and the ``extra`` attributes last."""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-size="{size}" '
            f'font-family="sans-serif"{extra}>{body}</text>')


def _line(x1, y1, x2, y2, stroke: str, width: int) -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
            f'stroke-width="{width}"/>')


def _nice_step(span: float) -> float:
    raw = span / 5
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return []
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
            out.append(_line(margin_left, f"{y:.2f}", margin_left + plot_w, f"{y:.2f}",
                             "#e0e0e0", 1))
            out.append(_text(margin_left - 8, f"{y + 4:.2f}", 12, _fmt_tick(tick), "end"))
        for tick in _ticks(x_lo, x_hi):
            x = f"{px(tick):.2f}"
            out.append(_line(x, bottom, x, bottom + 5, "#000", 1))
            out.append(_text(x, bottom + 20, 12, _fmt_tick(tick)))

        out.append(
            f'<rect x="{margin_left}" y="{top}" width="{plot_w}" height="{plot_h}" '
            'fill="none" stroke="#000" stroke-width="1"/>'
        )
        centre = f"{margin_left + plot_w / 2:.1f}"
        if panel.title:
            out.append(_text(centre, top - 10, 15, panel.title))
        if panel.xlabel:
            out.append(_text(centre, bottom + 36, 13, panel.xlabel))
        if panel.ylabel:
            y_label = f"{top + plot_h / 2:.1f}"
            out.append(_text(18, y_label, 13, panel.ylabel,
                             extra=f' transform="rotate(-90 18 {y_label})"'))

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
                out.append(_line(lx, ly - 4, lx + 20, ly - 4, color, 2))
                out.append(_text(lx + 26, ly, 12, label, ""))

    out.append("</svg>")
    handle.write("\n".join(out) + "\n")
