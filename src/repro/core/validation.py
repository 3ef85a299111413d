"""Schedule validation: time-validity and power-validity.

The paper's definitions (Sections 4.1–4.2):

* A schedule is **time-valid** when every min/max separation encoded in
  the constraint graph holds *and* tasks sharing a resource never
  overlap.
* A schedule is **power-valid** (or simply *valid*) when it is
  time-valid and its power profile never exceeds ``P_max``.

The validators return structured violation reports rather than just
booleans so tests, the CLI, and EXPERIMENTS.md tables can show *why* a
schedule failed.  ``assert_*`` variants raise :class:`ValidationError`.

The checker shares nothing with the objects the schedulers build and
remember.  It reads only the raw starts (``schedule.items()``), each
task's duration, power and resource, the graph's edge triples, the
resources' idle power, ``P_max`` and the baseline.  It builds no
power profile, solves no longest path and asks the schedule nothing
but its starts, so a stale makespan, slack or profile cannot fool it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ValidationError
from .schedule import Schedule
from .task import ANCHOR_NAME
from .tolerance import POWER_TOL

__all__ = ["Violation", "ValidationReport", "check_time_valid",
           "check_power_valid", "power_spikes", "assert_time_valid",
           "assert_power_valid"]


@dataclass(frozen=True)
class Violation:
    """One broken constraint.

    ``kind`` is one of ``"separation"``, ``"resource"``, ``"spike"``.
    """

    kind: str
    detail: str


@dataclass
class ValidationReport:
    """Outcome of validating a schedule."""

    violations: "list[Violation]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail: str) -> None:
        self.violations.append(Violation(kind=kind, detail=detail))

    def raise_if_failed(self) -> None:
        if not self.ok:
            lines = "\n  ".join(v.detail for v in self.violations)
            raise ValidationError(
                f"schedule validation failed "
                f"({len(self.violations)} violation(s)):\n  {lines}")

    def __bool__(self) -> bool:
        return self.ok


def check_time_valid(schedule: Schedule) -> ValidationReport:
    """Check every separation edge and resource exclusivity."""
    report = ValidationReport()
    graph = schedule.graph
    starts = dict(schedule.items())
    starts[ANCHOR_NAME] = 0

    for src, dst, weight in graph.edge_triples():
        gap = starts[dst] - starts[src]
        if gap < weight:
            report.add(
                "separation",
                f"sigma({dst}) - sigma({src}) = {gap} violates "
                f">= {weight} (edge tag {graph.edge_tag(src, dst)!r})")

    # Each resource's intervals sorted by start: a task can only clash
    # with later-starting tasks that start before it ends.
    timelines: "dict[str, list[tuple[int, str, int]]]" = {}
    for task in graph.tasks():
        if task.resource is not None:
            timelines.setdefault(task.resource, []).append(
                (starts[task.name], task.name, task.duration))
    for resource in graph.resources.names:
        timeline = sorted(timelines.get(resource, ()))
        for i, (start_u, u, duration_u) in enumerate(timeline):
            end_u = start_u + duration_u
            for start_v, v, duration_v in timeline[i + 1:]:
                if start_v >= end_u:
                    break
                if duration_u > 0 and duration_v > 0:
                    report.add(
                        "resource",
                        f"tasks {u!r} and {v!r} overlap on shared "
                        f"resource {resource!r} ([{start_u}, {end_u}) vs "
                        f"[{start_v}, {start_v + duration_v}))")
    return report


def power_spikes(schedule: Schedule, p_max: float,
                 baseline: float = 0.0) -> "list[tuple[int, int, float]]":
    """Maximal intervals ``(start, end, peak)`` in which the schedule
    draws more than ``P_max`` (by more than :data:`POWER_TOL`).

    An event sweep over ``[0, makespan)``: at each time a task starts
    or ends, the level is the :func:`math.fsum` of the running tasks'
    powers, ``baseline`` and every resource's idle power.
    """
    graph = schedule.graph
    starting: "dict[int, list[tuple[str, float]]]" = {}
    ending: "dict[int, list[str]]" = {}
    horizon = 0
    for name, start in schedule.items():
        task = graph.task(name)
        end = start + task.duration
        horizon = max(horizon, end)
        if task.duration > 0:
            starting.setdefault(start, []).append((name, task.power))
            ending.setdefault(end, []).append(name)
    if horizon == 0:
        return []
    floor = [baseline] + [res.idle_power for res in graph.resources]
    limit = p_max + POWER_TOL
    times = sorted({0, *starting, *ending} - {horizon})
    running: "dict[str, float]" = {}
    spikes: "list[tuple[int, int, float]]" = []
    spike: "list | None" = None          # [start, end, peak] while open
    for i, t in enumerate(times):
        for name in ending.get(t, ()):
            del running[name]
        running.update(starting.get(t, ()))
        level = math.fsum([*running.values(), *floor])
        end = times[i + 1] if i + 1 < len(times) else horizon
        if level > limit:
            if spike is None:
                spike = [t, end, level]
            else:
                spike[1], spike[2] = end, max(spike[2], level)
        elif spike is not None:
            spikes.append(tuple(spike))
            spike = None
    if spike is not None:
        spikes.append(tuple(spike))
    return spikes


def check_power_valid(schedule: Schedule, p_max: float,
                      baseline: float = 0.0) -> ValidationReport:
    """Time-validity plus the hard max-power constraint.

    The power drawn is the running tasks' power plus ``baseline`` plus
    the resources' idle power, each counted once.
    """
    report = check_time_valid(schedule)
    for start, end, peak in power_spikes(schedule, p_max, baseline):
        report.add(
            "spike",
            f"power spike [{start}, {end}) @ {peak:g}W: profile exceeds "
            f"P_max = {p_max:g} W")
    return report


def assert_time_valid(schedule: Schedule) -> None:
    """Raise :class:`ValidationError` unless the schedule is time-valid."""
    check_time_valid(schedule).raise_if_failed()


def assert_power_valid(schedule: Schedule, p_max: float,
                       baseline: float = 0.0) -> None:
    """Raise unless the schedule is time-valid and under ``P_max``."""
    check_power_valid(schedule, p_max, baseline=baseline).raise_if_failed()
