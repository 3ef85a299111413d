"""HTML report: several power-aware Gantt charts on one page.

The IMPACCT framework the paper describes is an interactive design
tool; the closest useful artifact a library can produce is a
self-contained HTML report — every chart's SVG inlined, with its
metric annotations — that a designer can open, zoom, and diff across
design alternatives.  Used by the rover example and handy for design
reviews of sweep results.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from ..files import write_text
from .model import GanttChart
from .svg import render_svg

__all__ = ["render_html_report", "write_html_report"]

_STYLE = """
body { font-family: sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.4em; }
h2 { font-size: 1.1em; margin-top: 2em; border-bottom: 1px solid #ccc; }
.meta { color: #555; font-size: 0.9em; margin-bottom: 0.6em; }
.chart { overflow-x: auto; border: 1px solid #eee; padding: 4px; }
"""


def render_html_report(charts: "list[GanttChart]",
                       title: str = "Power-aware schedules") -> str:
    """A standalone HTML document with every chart inlined as SVG."""
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{escape(title)}</title>",
        f"<style>{_STYLE}</style>",
        "</head><body>",
        f"<h1>{escape(title)}</h1>",
    ]
    for chart in charts:
        ann = chart.annotations()
        meta = (f"P_max={ann['P_max']:g} W &middot; "
                f"P_min={ann['P_min']:g} W &middot; "
                f"tau={ann['tau']} s &middot; "
                f"Ec={ann['energy_cost']:.1f} J &middot; "
                f"spikes={ann['spikes']} &middot; gaps={ann['gaps']}")
        parts.append(f"<h2>{escape(chart.title)}</h2>")
        parts.append(f"<div class='meta'>{meta}</div>")
        parts.append(f"<div class='chart'>{render_svg(chart)}</div>")
    parts.append("</body></html>")
    return "\n".join(parts)


def write_html_report(charts: "list[GanttChart]", path: str,
                      title: str = "Power-aware schedules") -> str:
    """Render and write the report; returns the path."""
    return write_text(path, render_html_report(charts, title=title))
