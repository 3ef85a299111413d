"""Mid-mission replanning: re-schedule the remainder from a snapshot.

The paper's static schedules are meant to feed "a runtime scheduler
that schedules tasks according to the dynamically changing constraints
imposed by the environment".  When execution diverges from the plan —
a task overran, the solar supply changed — the right response is not to
keep replaying a stale table but to *re-solve from current state*:

1. freeze history — every started task is locked at its actual start
   time (with its remaining execution, if still running, protected by a
   release on its successors);
2. the future is released — every pending task gets
   ``sigma(v) >= now``;
3. the remainder is re-solved by the normal three-stage pipeline under
   the *current* power constraints.

The result is a full schedule (history + future) that is time-valid by
construction and power-valid from ``now`` on; past spikes are sunk
cost.
"""

from __future__ import annotations

from ..core.problem import SchedulingProblem
from ..errors import ReproError
from ..scheduling.base import ScheduleResult, SchedulerOptions
from ..scheduling.power_aware import PowerAwareScheduler
from .executor import ExecutionResult

__all__ = ["replan"]


def replan(problem: SchedulingProblem, snapshot: ExecutionResult,
           now: int, p_max: "float | None" = None,
           p_min: "float | None" = None,
           options: "SchedulerOptions | None" = None,
           scheduler=None) -> ScheduleResult:
    """Re-schedule the tasks that have not started by ``now``.

    Parameters
    ----------
    problem:
        The original problem (source of the constraint graph).
    snapshot:
        An :class:`ExecutionResult` from
        ``ScheduleExecutor.run(until=now)`` — its spans carry the actual
        starts and (realized) durations of everything dispatched so far.
    now:
        Current mission tick; pending tasks may not start before it.
    p_max, p_min:
        Optionally updated power constraints (the environment may have
        changed — that is often why we replan).  Default: the
        problem's.
    scheduler:
        The solver for the remainder — anything with a
        ``solve(problem)`` method (e.g. a mission session's configured
        :class:`~repro.scheduling.max_power.MaxPowerScheduler`, so the
        replanned suffix comes from the same algorithm as every other
        solve of that session).  Default: the full
        :class:`~repro.scheduling.power_aware.PowerAwareScheduler`
        pipeline built from ``options``.

    Returns the pipeline result for the *whole* task set: frozen
    history plus re-planned future.
    """
    if now < 0:
        raise ReproError(f"now must be >= 0, got {now}")
    graph = problem.graph.copy()

    for name, (start, end) in snapshot.spans.items():
        # "frozen", not the default "lock": the max-power stage treats
        # its own "lock" pins as relaxable (spike repair lifts them,
        # compaction left-shifts them), but executed history must never
        # move — a distinct tag keeps it out of both passes.
        graph.lock_start(name, start, tag="frozen")
        if end > now:
            # still running: its realized duration may exceed the
            # nominal one; push successors past the *actual* end
            nominal = graph.task(name).duration
            overrun = (end - start) - nominal
            if overrun > 0:
                for edge in graph.out_edges(name):
                    if edge.weight >= nominal \
                            and edge.dst != graph.anchor.name \
                            and edge.dst not in snapshot.spans:
                        # end-anchored separations stretch with the
                        # overrun — but only toward tasks that have not
                        # themselves started (history cannot be moved)
                        graph.add_edge(name, edge.dst,
                                       edge.weight + overrun,
                                       tag="replan")
                # ...and hold its resource and power for the realized
                # span, so nothing is serialized into its tail
                graph.set_duration(name, end - start)
    for name in problem.graph.task_names():
        if name not in snapshot.spans:
            graph.add_release(name, now, tag="replan")

    scaled = SchedulingProblem(
        graph=graph,
        p_max=problem.p_max if p_max is None else p_max,
        p_min=problem.p_min if p_min is None else p_min,
        baseline=problem.baseline,
        name=f"{problem.name}@t={now}",
        meta=dict(problem.meta))
    solver = scheduler if scheduler is not None \
        else PowerAwareScheduler(options)
    result = solver.solve(scaled)
    result.extra["replanned_at"] = now
    result.extra["frozen"] = sorted(snapshot.spans)
    return result
