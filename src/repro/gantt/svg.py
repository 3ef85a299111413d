"""SVG renderer for power-aware Gantt charts.

Writes a standalone SVG file showing the two coordinated views exactly
as the paper draws them (Figs. 2, 5, 7, 9-11): the time view on top
(task bins per resource row, bin height proportional to power) and the
power view below (the stacked profile with the ``P_max`` / ``P_min``
levels, spikes hatched red, gaps shaded blue).

matplotlib is not available in this environment, so the SVG is emitted
by hand; the format is simple enough that hand-rolling it keeps the
renderer dependency-free and the output deterministic (tests assert on
the generated markup).
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from ..files import write_text
from .model import GanttChart

__all__ = ["render_svg", "write_svg"]

# Layout constants (pixels).
_MARGIN = 50
_ROW_BASE = 26          # minimum row height for the time view
_POWER_VIEW_H = 180
_PX_PER_SECOND = 9
_PX_PER_WATT = 6
_GAP_BETWEEN_VIEWS = 34

_PALETTE = ["#4c78a8", "#f58518", "#54a24b", "#b79a20", "#439894",
            "#e45756", "#d67195", "#b279a2", "#9e765f", "#7970ce"]


def render_svg(chart: GanttChart) -> str:
    """The chart as an SVG document string."""
    horizon = max(chart.horizon, 1)
    peak = max(chart.profile.peak(), chart.p_max)
    time_w = horizon * _PX_PER_SECOND
    rows = list(chart.rows.items())
    row_heights = []
    for _, bins in rows:
        tallest = max((b.power for b in bins), default=1.0)
        row_heights.append(max(_ROW_BASE,
                               int(tallest * _PX_PER_WATT) + 8))
    time_view_h = sum(row_heights) + 6 * len(rows)
    width = time_w + 2 * _MARGIN + 60
    height = (time_view_h + _POWER_VIEW_H + _GAP_BETWEEN_VIEWS
              + 2 * _MARGIN + 30)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_MARGIN}" y="{_MARGIN - 28}" font-size="15" '
        f'font-weight="bold">{escape(chart.title)}</text>',
        _legend_text(chart, _MARGIN, _MARGIN - 10),
    ]
    color_of = _color_map(chart)
    parts.extend(_time_view(chart, rows, row_heights, _MARGIN, _MARGIN,
                            color_of))
    power_y = _MARGIN + time_view_h + _GAP_BETWEEN_VIEWS
    parts.extend(_power_view(chart, _MARGIN, power_y, time_w, peak,
                             color_of))
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(chart: GanttChart, path: str) -> str:
    """Render and write to ``path``; returns the path."""
    return write_text(path, render_svg(chart))


# ----------------------------------------------------------------------
# pieces
# ----------------------------------------------------------------------

def _legend_text(chart: GanttChart, x: int, y: int) -> str:
    ann = chart.annotations()
    text = (f"P_max={ann['P_max']:g}W  P_min={ann['P_min']:g}W  "
            f"tau={ann['tau']}s  E={ann['energy']:.1f}J  "
            f"Ec={ann['energy_cost']:.1f}J  spikes={ann['spikes']}  "
            f"gaps={ann['gaps']}")
    return f'<text x="{x}" y="{y}" fill="#444">{escape(text)}</text>'


def _color_map(chart: GanttChart) -> "dict[str, str]":
    colors = {}
    index = 0
    for bins in chart.rows.values():
        for item in bins:
            if item.task not in colors:
                colors[item.task] = _PALETTE[index % len(_PALETTE)]
                index += 1
    return colors


def _time_view(chart, rows, row_heights, x0, y0, color_of):
    parts = [f'<g id="time-view">']
    y = y0
    for (resource, bins), row_h in zip(rows, row_heights):
        base = y + row_h
        parts.append(
            f'<text x="{x0 - 44}" y="{base - 6}" fill="#222">'
            f'{escape(resource)}</text>')
        parts.append(
            f'<line x1="{x0}" y1="{base}" '
            f'x2="{x0 + chart.horizon * _PX_PER_SECOND}" y2="{base}" '
            f'stroke="#999"/>')
        for item in bins:
            bx = x0 + item.start * _PX_PER_SECOND
            bw = max(item.duration * _PX_PER_SECOND - 1, 2)
            bh = max(int(item.power * _PX_PER_WATT), 6)
            parts.append(
                f'<rect x="{bx}" y="{base - bh}" width="{bw}" '
                f'height="{bh}" fill="{color_of[item.task]}" '
                f'stroke="#333" stroke-width="0.6">'
                f'<title>{escape(item.task)}: start={item.start}s '
                f'd={item.duration}s p={item.power:g}W '
                f'slack={item.slack}</title></rect>')
            parts.append(
                f'<text x="{bx + 2}" y="{base - bh + 11}" '
                f'fill="white" font-size="10">'
                f'{escape(item.task[:8])}</text>')
        y += row_h + 6
    parts.append("</g>")
    return parts


def _power_view(chart, x0, y0, time_w, peak, color_of):
    height = _POWER_VIEW_H
    scale = height / max(peak * 1.15, 1e-9)

    def py(watts: float) -> float:
        return y0 + height - watts * scale

    parts = [f'<g id="power-view">']
    parts.append(
        f'<line x1="{x0}" y1="{y0 + height}" x2="{x0 + time_w}" '
        f'y2="{y0 + height}" stroke="#333"/>')
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y0 + height}" '
        f'stroke="#333"/>')

    # stacked composition per segment
    for t0, t1, _level in chart.profile.segments:
        seg_x = x0 + t0 * _PX_PER_SECOND
        seg_w = (t1 - t0) * _PX_PER_SECOND
        stack_y = y0 + height
        for name, watts in chart.composition_at(t0):
            h = watts * scale
            fill = "#bbb" if name == "(baseline)" \
                else color_of.get(name, "#888")
            parts.append(
                f'<rect x="{seg_x}" y="{stack_y - h:.2f}" '
                f'width="{seg_w}" height="{h:.2f}" fill="{fill}" '
                f'stroke="white" stroke-width="0.4" opacity="0.9">'
                f'<title>{escape(name)}: {watts:g}W @ '
                f'[{t0},{t1})s</title></rect>')
            stack_y -= h

    # constraint levels
    for level, color, label in ((chart.p_max, "#d62728", "P_max"),
                                (chart.p_min, "#1f77b4", "P_min")):
        yy = py(level)
        parts.append(
            f'<line x1="{x0}" y1="{yy:.2f}" x2="{x0 + time_w}" '
            f'y2="{yy:.2f}" stroke="{color}" stroke-dasharray="6,3"/>')
        parts.append(
            f'<text x="{x0 + time_w + 4}" y="{yy + 4:.2f}" '
            f'fill="{color}">{label}={level:g}W</text>')

    # spike / gap shading
    for spike in chart.spikes():
        sx = x0 + spike.start * _PX_PER_SECOND
        sw = spike.length * _PX_PER_SECOND
        parts.append(
            f'<rect x="{sx}" y="{py(spike.extremum):.2f}" width="{sw}" '
            f'height="{py(chart.p_max) - py(spike.extremum):.2f}" '
            f'fill="#d62728" opacity="0.35">'
            f'<title>spike {spike!r}</title></rect>')
    for gap in chart.gaps():
        gx = x0 + gap.start * _PX_PER_SECOND
        gw = gap.length * _PX_PER_SECOND
        parts.append(
            f'<rect x="{gx}" y="{py(chart.p_min):.2f}" width="{gw}" '
            f'height="{py(gap.extremum) - py(chart.p_min):.2f}" '
            f'fill="#1f77b4" opacity="0.25">'
            f'<title>gap {gap!r}</title></rect>')

    # y-axis labels
    step = max(int(peak / 5) or 1, 1)
    level = 0
    while level <= peak * 1.1:
        parts.append(
            f'<text x="{x0 - 30}" y="{py(level) + 4:.2f}" '
            f'fill="#555">{level}W</text>')
        level += step
    parts.append("</g>")
    return parts
