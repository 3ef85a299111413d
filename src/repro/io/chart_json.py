"""Chart-model JSON export for external front ends.

The power-aware Gantt chart is the paper's designer-facing surface; a
real deployment would render it in a GUI rather than a terminal.  This
module serializes the full dual-view model — rows of bins with slack,
the power-profile segments, the constraint levels, spikes and gaps —
as one self-contained document any front end can draw (and drag, using
the per-bin ``slack`` to bound the handles).

.. code-block:: json

    {
      "format": "repro-chart",
      "version": 1,
      "title": "fig1-example [min_power]",
      "p_max": 16.0, "p_min": 14.0, "baseline": 0.0,
      "horizon": 20,
      "rows": [{"resource": "A",
                "bins": [{"task": "a", "start": 0, "duration": 5,
                          "power": 7.0, "slack": 0}]}],
      "profile": [[0, 20, 14.0]],
      "spikes": [], "gaps": []
    }
"""

from __future__ import annotations

from typing import Any

from ..files import write_json
from ..gantt.model import GanttChart

__all__ = ["chart_to_dict", "save_chart"]

_FORMAT = "repro-chart"
_VERSION = 1


def chart_to_dict(chart: GanttChart) -> "dict[str, Any]":
    """Serialize a chart to a plain dict."""
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "title": chart.title,
        "p_max": chart.p_max,
        "p_min": chart.p_min,
        "baseline": chart.baseline,
        "horizon": chart.horizon,
        "rows": [
            {"resource": resource,
             "bins": [{"task": item.task, "start": item.start,
                       "duration": item.duration, "power": item.power,
                       "slack": item.slack}
                      for item in bins]}
            for resource, bins in chart.rows.items()],
        "profile": [[t0, t1, power]
                    for t0, t1, power in chart.profile.segments],
        "spikes": [[s.start, s.end, s.extremum]
                   for s in chart.spikes()],
        "gaps": [[g.start, g.end, g.extremum] for g in chart.gaps()],
    }


def save_chart(chart: GanttChart, path: str) -> str:
    """Write the chart document; returns the path."""
    return write_json(path, chart_to_dict(chart))
