"""Pareto-front exploration of the performance/energy plane.

The power-aware design problem is inherently bi-objective: finish time
``tau`` against battery energy ``Ec``.  The paper explores three
hand-picked points (best/typical/worst budgets); a design tool should
chart the whole front.  This module:

* runs a set of labelled scheduler configurations (different options,
  different schedulers, different power constraints) on one workload,
* extracts the non-dominated ``(tau, Ec)`` points,
* renders the plane as a standalone SVG scatter (dominated points
  grey, the front connected).

The front is the designer's menu: every point on it is the cheapest
schedule at its speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..core.problem import SchedulingProblem
from ..errors import ReproError, SchedulingFailure
from ..files import write_text
from ..scheduling.base import ScheduleResult

__all__ = ["DesignPoint", "explore", "pareto_front",
           "render_pareto_svg", "write_pareto_svg"]

#: A labelled scheduler configuration.
Solver = Callable[[SchedulingProblem], ScheduleResult]


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration in the (tau, Ec) plane."""

    label: str
    finish_time: int
    energy_cost: float
    utilization: float

    def dominates(self, other: "DesignPoint") -> bool:
        """Weakly better on both axes, strictly on one."""
        if self.finish_time > other.finish_time \
                or self.energy_cost > other.energy_cost + 1e-9:
            return False
        return self.finish_time < other.finish_time \
            or self.energy_cost < other.energy_cost - 1e-9

    def row(self) -> "dict[str, object]":
        return {"config": self.label, "tau_s": self.finish_time,
                "Ec_J": round(self.energy_cost, 1),
                "rho_pct": round(100 * self.utilization, 1)}


def explore(problem: SchedulingProblem,
            solvers: "Mapping[str, Solver]") -> "list[DesignPoint]":
    """Evaluate every configuration; failures are skipped silently
    (an infeasible configuration is simply not a design point)."""
    points = []
    for label, solver in solvers.items():
        try:
            result = solver(problem)
        except (SchedulingFailure, ReproError):
            continue
        points.append(DesignPoint(
            label=label, finish_time=result.finish_time,
            energy_cost=result.energy_cost,
            utilization=result.utilization))
    return points


def pareto_front(points: "list[DesignPoint]") -> "list[DesignPoint]":
    """The non-dominated subset, sorted by finish time."""
    front = [p for p in points
             if not any(q.dominates(p) for q in points)]
    # de-duplicate identical coordinates, keep first label
    seen: "set[tuple[int, float]]" = set()
    unique = []
    for p in sorted(front, key=lambda p: (p.finish_time,
                                          p.energy_cost)):
        coord = (p.finish_time, round(p.energy_cost, 6))
        if coord not in seen:
            seen.add(coord)
            unique.append(p)
    return unique


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

_W, _H, _M = 460, 320, 54


def render_pareto_svg(points: "list[DesignPoint]",
                      title: str = "Design space") -> str:
    """The (tau, Ec) plane as a standalone SVG scatter."""
    from xml.sax.saxutils import escape

    if not points:
        raise ReproError("no design points to plot")
    front = set(id(p) for p in pareto_front(points))
    max_tau = max(p.finish_time for p in points) * 1.1 + 1
    max_ec = max(p.energy_cost for p in points) * 1.1 + 1

    def x_of(tau: float) -> float:
        return _M + tau / max_tau * (_W - 2 * _M)

    def y_of(ec: float) -> float:
        return _H - _M - ec / max_ec * (_H - 2 * _M)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_M}" y="20" font-size="14" font-weight="bold">'
        f'{escape(title)}</text>',
        f'<line x1="{_M}" y1="{_H - _M}" x2="{_W - _M}" '
        f'y2="{_H - _M}" stroke="#333"/>',
        f'<line x1="{_M}" y1="{_M}" x2="{_M}" y2="{_H - _M}" '
        'stroke="#333"/>',
        f'<text x="{_W // 2}" y="{_H - 12}">finish time tau (s)'
        '</text>',
        f'<text x="12" y="{_H // 2}" transform="rotate(-90 12 '
        f'{_H // 2})">energy cost Ec (J)</text>',
    ]
    ordered_front = pareto_front(points)
    if len(ordered_front) > 1:
        path = " ".join(
            f"{x_of(p.finish_time):.1f},{y_of(p.energy_cost):.1f}"
            for p in ordered_front)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="#4c78a8" '
            'stroke-width="1.5" stroke-dasharray="4,3"/>')
    for p in points:
        on_front = id(p) in front
        fill = "#4c78a8" if on_front else "#bbb"
        r = 5 if on_front else 3.5
        cx, cy = x_of(p.finish_time), y_of(p.energy_cost)
        parts.append(
            f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{r}" '
            f'fill="{fill}"><title>{escape(p.label)}: '
            f'tau={p.finish_time}s Ec={p.energy_cost:.1f}J</title>'
            '</circle>')
        if on_front:
            parts.append(
                f'<text x="{cx + 7:.1f}" y="{cy - 5:.1f}" '
                f'fill="#333" font-size="10">{escape(p.label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_pareto_svg(points: "list[DesignPoint]", path: str,
                     title: str = "Design space") -> str:
    """Render and write the scatter; returns the path."""
    return write_text(path, render_pareto_svg(points, title=title))
