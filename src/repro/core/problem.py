"""The scheduling problem container.

A :class:`SchedulingProblem` bundles everything the power-aware
scheduler needs:

* the constraint graph (tasks + min/max separations + resource map),
* the hard max power constraint ``P_max`` (supply budget),
* the soft min power constraint ``P_min`` (free-power level),
* a constant ``baseline`` load (always-on consumers like the rover CPU).

It is also the one place that says how its schedules are profiled
and checked (:meth:`SchedulingProblem.profile`,
:meth:`SchedulingProblem.check`), so every always-on watt is counted
once.

The problem owns *user* constraints only; schedulers work on a private
copy of the graph, so a problem can be solved repeatedly under different
power constraints (the essence of power-aware design-space exploration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import GraphError
from .graph import ConstraintGraph
from .profile import PowerProfile
from .schedule import Schedule
from .validation import ValidationReport, check_power_valid

__all__ = ["SchedulingProblem"]


@dataclass
class SchedulingProblem:
    """A power-aware scheduling problem instance."""

    graph: ConstraintGraph
    p_max: float
    p_min: float = 0.0
    baseline: float = 0.0
    name: str = ""
    meta: "Mapping[str, Any]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        # "not >= 0" rather than "< 0": NaN fails every comparison, so
        # it would pass a "< 0" check and make every spike test false.
        if not self.p_max >= 0:
            raise GraphError(f"P_max must be >= 0, got {self.p_max}")
        if not self.p_min >= 0:
            raise GraphError(f"P_min must be >= 0, got {self.p_min}")
        if self.p_min > self.p_max:
            raise GraphError(
                f"P_min ({self.p_min}) must not exceed P_max "
                f"({self.p_max}); the window would be empty")
        if not self.baseline >= 0:
            raise GraphError(
                f"baseline power must be >= 0, got {self.baseline}")
        if not self.name:
            self.name = self.graph.name

    @property
    def total_baseline(self) -> float:
        """Baseline plus declared resource idle power, for scalar budget
        arithmetic.  Never a profile's ``baseline``: the profile adds
        the idle power itself (use :meth:`profile`)."""
        return self.baseline + self.graph.resources.total_idle_power

    def profile(self, schedule: Schedule,
                horizon: "int | None" = None) -> PowerProfile:
        """The power profile ``P(t)`` of ``schedule`` under this problem:
        active task powers plus ``baseline`` plus resource idle power,
        each counted once."""
        return PowerProfile.from_schedule(schedule, baseline=self.baseline,
                                          horizon=horizon)

    def check(self, schedule: Schedule) -> ValidationReport:
        """Time-validity of ``schedule`` plus this problem's ``P_max``
        on the power it draws: the same sum as :meth:`profile`, found
        by the independent checker of :mod:`repro.core.validation`."""
        return check_power_valid(schedule, self.p_max,
                                 baseline=self.baseline)

    @property
    def has_operating_points(self) -> bool:
        """True when any task carries a DVFS operating-point ladder.

        Such problems get their configuration chosen by the
        ``freq_select`` search, and are exempt from schedule-store
        certification (see DESIGN.md section 5f): the search's output
        depends on ``P_max``, so no timing-stage entry could be valid
        over a whole power rectangle.
        """
        return any(task.has_ladder for task in self.graph.tasks())

    def headroom(self) -> float:
        """Power budget left above the constant baseline."""
        return self.p_max - self.total_baseline

    def feasible_power_check(self) -> "list[str]":
        """Quick necessary-condition screen before scheduling.

        Returns human-readable reasons the problem is trivially
        power-infeasible: a single task (plus baseline) already above
        ``P_max`` can never be scheduled.  An empty list does not prove
        feasibility.  "Above" means by more than
        :attr:`PowerProfile.POWER_TOL`, as in :meth:`check`, so the
        screen never rejects a problem that has a valid schedule.
        """
        reasons = []
        budget = self.p_max + PowerProfile.POWER_TOL
        if self.total_baseline > budget:
            reasons.append(
                f"baseline load {self.total_baseline:g} W exceeds "
                f"P_max = {self.p_max:g} W")
        for task in self.graph.tasks():
            if task.duration > 0 and \
                    task.power + self.total_baseline > budget:
                reasons.append(
                    f"task {task.name!r} needs "
                    f"{task.power + self.total_baseline:g} W "
                    f"(with baseline) > P_max = {self.p_max:g} W")
        return reasons

    def with_power_constraints(self, p_max: float,
                               p_min: float) -> "SchedulingProblem":
        """The same workload under different power constraints.

        The graph is shared (schedulers copy it anyway); this is the
        cheap way to sweep the (P_max, P_min) plane.
        """
        return SchedulingProblem(graph=self.graph, p_max=p_max,
                                 p_min=p_min, baseline=self.baseline,
                                 name=self.name, meta=dict(self.meta))

    def fresh_graph(self) -> ConstraintGraph:
        """A private copy of the constraint graph for a scheduler run."""
        return self.graph.copy()

    def __repr__(self) -> str:
        return (f"SchedulingProblem({self.name!r}, tasks={len(self.graph)}, "
                f"P_max={self.p_max:g}, P_min={self.p_min:g}, "
                f"baseline={self.baseline:g})")
