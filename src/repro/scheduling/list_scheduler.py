"""Greedy power-capped list scheduler (extra baseline).

A classic resource-constrained list scheduler extended with a power cap:
tasks are visited in ASAP (earliest-start, critical-path-aware) order
and each is placed at the earliest slot where

* all its separation constraints from already-placed tasks hold,
* its resource is free for the whole execution, and
* adding its power keeps the profile at or below ``P_max`` throughout.

This is the natural "obvious" alternative to the paper's three-stage
pipeline and serves as a second comparison point in the benchmarks: it
is fast and usually close on makespan, but it neither backtracks (so it
can fail on max-separation-rich graphs where the paper's scheduler
succeeds) nor optimizes min-power utilization.

Max separations are honoured by *validation*: the greedy placement only
propagates min separations, then the result is checked; a violated max
separation is reported as a :class:`SchedulingFailure`.
"""

from __future__ import annotations

from ..core.longest_path import longest_paths
from ..core.problem import SchedulingProblem
from ..core.schedule import Schedule
from ..core.task import ANCHOR_NAME
from ..errors import SchedulingFailure
from .base import ScheduleResult, SchedulerOptions, SchedulerStats, \
    make_result

__all__ = ["GreedyListScheduler", "greedy_schedule"]


class GreedyListScheduler:
    """One-pass list scheduling with resource and power feasibility."""

    def __init__(self, options: "SchedulerOptions | None" = None):
        self.options = options or SchedulerOptions()
        self.stats = SchedulerStats()

    def solve(self, problem: SchedulingProblem) -> ScheduleResult:
        """Greedy placement; raises on failure (no backtracking)."""
        self.stats = SchedulerStats()
        graph = problem.fresh_graph()
        reasons = problem.feasible_power_check()
        if reasons:
            raise SchedulingFailure(
                "problem is power-infeasible: " + "; ".join(reasons))

        self.stats.longest_path_runs += 1
        est = longest_paths(graph).distance
        order = sorted(graph.task_names(), key=lambda n: (est[n], n))

        starts: "dict[str, int]" = {}
        resource_busy: "dict[str, list[tuple[int, int]]]" = {}
        power_deltas: "dict[int, float]" = {}
        headroom = problem.p_max - problem.total_baseline

        for name in order:
            task = graph.task(name)
            t = self._earliest_by_separations(graph, name, starts, est)
            while True:
                t_res = self._resource_clear(
                    resource_busy.get(task.resource, []), t, task.duration)
                if t_res > t:
                    t = t_res
                    continue
                t_pow = self._power_clear(power_deltas, t, task.duration,
                                          task.power, headroom)
                if t_pow > t:
                    t = t_pow
                    continue
                break
            starts[name] = t
            if task.resource is not None and task.duration > 0:
                resource_busy.setdefault(task.resource, []).append(
                    (t, t + task.duration))
            if task.power > 0 and task.duration > 0:
                power_deltas[t] = power_deltas.get(t, 0.0) + task.power
                end = t + task.duration
                power_deltas[end] = power_deltas.get(end, 0.0) - task.power

        schedule = Schedule(graph, starts)
        report = problem.check(schedule)
        if not report.ok:
            raise SchedulingFailure(
                "greedy list scheduler produced an invalid schedule "
                "(it does not backtrack over max separations): "
                + report.violations[0].detail)
        result = make_result(problem, schedule, stats=self.stats,
                             stage="greedy")
        result.extra["graph"] = graph
        return result

    # ------------------------------------------------------------------

    @staticmethod
    def _earliest_by_separations(graph, name, starts, est) -> int:
        """Earliest start honouring min separations from placed tasks."""
        t = est[name]
        for edge in graph.in_edges(name):
            if edge.src == ANCHOR_NAME:
                t = max(t, edge.weight)
            elif edge.src in starts and edge.weight >= 0:
                t = max(t, starts[edge.src] + edge.weight)
        return t

    @staticmethod
    def _resource_clear(busy: "list[tuple[int, int]]", t: int,
                        duration: int) -> int:
        """First time >= t when the resource is free for ``duration``."""
        if duration == 0:
            return t
        changed = True
        while changed:
            changed = False
            for b0, b1 in busy:
                if t < b1 and t + duration > b0:
                    t = b1
                    changed = True
        return t

    @staticmethod
    def _power_clear(deltas: "dict[int, float]", t: int, duration: int,
                     power: float, headroom: float) -> int:
        """First time >= t where ``power`` fits under the cap throughout
        ``[t, t+duration)``; scans the event-sorted usage curve."""
        if duration == 0 or power == 0:
            return t
        events = sorted(deltas.items())
        while True:
            level = 0.0
            violation_at = None
            for time, delta in events:
                if time >= t + duration:
                    break
                level += delta
                if time <= t:
                    continue
                if level + power > headroom + 1e-9:
                    violation_at = time
            # check the level holding at time t itself
            level_at_t = sum(d for time, d in events if time <= t)
            if level_at_t + power > headroom + 1e-9:
                # advance past the event that releases enough power
                nxt = [time for time, _ in events if time > t]
                if not nxt:
                    raise SchedulingFailure(
                        f"task of {power:g} W can never fit under "
                        f"headroom {headroom:g} W")
                t = nxt[0]
                continue
            if violation_at is None:
                return t
            t = violation_at
        # unreachable

def greedy_schedule(problem: SchedulingProblem,
                    options: "SchedulerOptions | None" = None) \
        -> ScheduleResult:
    """Convenience wrapper for :class:`GreedyListScheduler`."""
    return GreedyListScheduler(options).solve(problem)
