"""Mission timeline chart: consumption vs solar supply over a mission.

Figs. 9-11 show single-iteration power views; the Table 4 story —
cover ground while the sun shines — only becomes visible on the
mission-level curve.  This renderer draws, over the whole mission:

* the solar supply line (the free-power ceiling, stepping down),
* each iteration's consumed-power profile, colour-split at the supply
  level: energy below the line is free (green), above is battery
  (red),
* iteration boundaries with step counts.

Accepts any :class:`~repro.mission.simulator.MissionReport` whose
iterations carry plans with profiles — which requires re-running the
policies, so the chart builder takes the policy objects and mirrors the
simulator's stepping.  A simpler array-based entry point
(:func:`render_mission_svg`) is exposed for custom pipelines.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from ..files import write_text
from ..power.solar import SolarModel

__all__ = ["MissionTrack", "render_mission_svg", "write_mission_svg"]

_MARGIN = 56
_HEIGHT = 220
_PX_PER_SECOND = 0.55
_LEGEND_H = 40


class MissionTrack:
    """The drawable data of one mission: (time, power) step samples."""

    def __init__(self, label: str):
        self.label = label
        #: list of (t0, t1, consumed_watts)
        self.segments: "list[tuple[float, float, float]]" = []
        #: iteration boundary times with annotations
        self.boundaries: "list[tuple[float, str]]" = []

    def add_profile(self, profile, start_time: float,
                    note: str = "") -> None:
        """Append one iteration's profile at an absolute start time."""
        for t0, t1, level in profile.segments:
            self.segments.append((start_time + t0, start_time + t1,
                                  level))
        self.boundaries.append((start_time, note))

    @property
    def end_time(self) -> float:
        return self.segments[-1][1] if self.segments else 0.0


def render_mission_svg(track: MissionTrack, solar: SolarModel,
                       title: str = "") -> str:
    """The mission curve as a standalone SVG document."""
    end = max(track.end_time, 1.0)
    peak = max([level for _, _, level in track.segments] +
               [solar.power(t) for t, _ in track.boundaries] + [1.0])
    width = int(end * _PX_PER_SECOND) + 2 * _MARGIN
    height = _HEIGHT + 2 * _MARGIN + _LEGEND_H
    scale_y = _HEIGHT / (peak * 1.15)
    base_y = _MARGIN + _HEIGHT

    def x_of(t: float) -> float:
        return _MARGIN + t * _PX_PER_SECOND

    def y_of(watts: float) -> float:
        return base_y - watts * scale_y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_MARGIN}" y="{_MARGIN - 22}" font-size="15" '
        f'font-weight="bold">{escape(title or track.label)}</text>',
        f'<line x1="{_MARGIN}" y1="{base_y}" x2="{x_of(end):.1f}" '
        f'y2="{base_y}" stroke="#333"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{base_y}" stroke="#333"/>',
    ]

    # consumption bars, split at the solar level
    for t0, t1, level in track.segments:
        if t1 <= t0:
            continue
        solar_level = solar.power(t0)
        free = min(level, solar_level)
        excess = max(level - solar_level, 0.0)
        x, w = x_of(t0), (t1 - t0) * _PX_PER_SECOND
        if free > 0:
            parts.append(
                f'<rect x="{x:.1f}" y="{y_of(free):.1f}" '
                f'width="{w:.2f}" height="{free * scale_y:.1f}" '
                f'fill="#74b06f" stroke="none"/>')
        if excess > 0:
            parts.append(
                f'<rect x="{x:.1f}" y="{y_of(level):.1f}" '
                f'width="{w:.2f}" height="{excess * scale_y:.1f}" '
                f'fill="#d9644a" stroke="none"/>')

    # the solar supply line
    points = []
    step = max(end / 400.0, 1.0)
    t = 0.0
    while t <= end:
        points.append(f"{x_of(t):.1f},{y_of(solar.power(t)):.1f}")
        t += step
    parts.append(
        f'<polyline points="{" ".join(points)}" fill="none" '
        'stroke="#e2a72e" stroke-width="2"/>')
    parts.append(
        f'<text x="{x_of(end) + 4:.1f}" '
        f'y="{y_of(solar.power(end)) + 4:.1f}" fill="#b07d0f">solar'
        '</text>')

    # iteration boundaries
    for t, note in track.boundaries:
        parts.append(
            f'<line x1="{x_of(t):.1f}" y1="{_MARGIN}" '
            f'x2="{x_of(t):.1f}" y2="{base_y}" stroke="#bbb" '
            'stroke-dasharray="2,4"/>')
        if note:
            parts.append(
                f'<text x="{x_of(t) + 2:.1f}" y="{_MARGIN + 10}" '
                f'fill="#777" font-size="9">{escape(note)}</text>')

    # legend + axis labels
    legend_y = base_y + 26
    parts.append(
        f'<rect x="{_MARGIN}" y="{legend_y - 9}" width="10" '
        'height="10" fill="#74b06f"/>')
    parts.append(
        f'<text x="{_MARGIN + 14}" y="{legend_y}">free (solar) '
        'energy</text>')
    parts.append(
        f'<rect x="{_MARGIN + 140}" y="{legend_y - 9}" width="10" '
        'height="10" fill="#d9644a"/>')
    parts.append(
        f'<text x="{_MARGIN + 154}" y="{legend_y}">battery energy'
        '</text>')
    for frac in (0.0, 0.5, 1.0):
        watts = peak * frac
        parts.append(
            f'<text x="{_MARGIN - 40}" y="{y_of(watts) + 4:.1f}" '
            f'fill="#555">{watts:.0f}W</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_mission_svg(track: MissionTrack, solar: SolarModel,
                      path: str, title: str = "") -> str:
    """Render and write the mission chart; returns the path."""
    return write_text(path, render_mission_svg(track, solar, title=title))
