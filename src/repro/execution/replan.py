"""Mid-mission replanning: re-schedule the remainder from a snapshot.

The paper's static schedules are meant to feed "a runtime scheduler
that schedules tasks according to the dynamically changing constraints
imposed by the environment".  When execution diverges from the plan —
a task overran, the solar supply changed — the right response is not to
keep replaying a stale table but to *re-solve from current state*:

1. freeze history (:func:`freeze`) — every started task is locked at
   its actual start time, a still-running overrun keeps its resource
   for its realized span, and every pending task gets
   ``sigma(v) >= now``;
2. the remainder is re-solved by the normal three-stage pipeline under
   the *current* power constraints.

The result is a full schedule (history + future) that is time-valid by
construction and power-valid from ``now`` on; past spikes are sunk
cost.
"""

from __future__ import annotations

from typing import Mapping

from ..core.graph import ConstraintGraph
from ..core.problem import SchedulingProblem
from ..core.task import ANCHOR_NAME
from ..errors import ReproError
from ..scheduling.base import ScheduleResult, SchedulerOptions
from ..scheduling.power_aware import PowerAwareScheduler
from .executor import ExecutionResult

__all__ = ["freeze", "replan"]


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
    freeze(graph, snapshot.spans, now)
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


def freeze(graph: ConstraintGraph,
           spans: "Mapping[str, tuple[int, int]]", now: int) -> None:
    """Turn executed history into constraints on ``graph``, in place.

    ``spans`` maps every started task to its executed ``[start, end)``
    span; ``graph`` must be a working copy holding nominal durations.
    This is the one re-solve rule: :func:`replan` and the mission
    session both call it.  In order:

    1. a still-running overrun (``end > now``, longer than nominal) is
       real: its end-anchored out-edges (at least one nominal duration
       long — the paper's precedence encoding) toward tasks that have
       not started are pushed out by the overrun, and its duration
       becomes the realized one, so resource exclusion and the power
       profile see its tail;
    2. every executed start is locked — tagged ``"frozen"``, not the
       default ``"lock"``: the max-power stage treats its own ``"lock"``
       pins as relaxable (spike repair lifts them, compaction
       left-shifts them), but history must never move;
    3. every task that has not started is released at ``now``.
    """
    for name, (start, end) in spans.items():
        nominal = graph.task(name).duration
        overrun = (end - start) - nominal
        if end > now and overrun > 0:
            for edge in graph.out_edges(name):
                if edge.weight >= nominal and edge.dst != ANCHOR_NAME \
                        and edge.dst not in spans:
                    graph.add_edge(name, edge.dst,
                                   edge.weight + overrun, tag="replan")
            graph.set_duration(name, end - start)
    for name, (start, _end) in spans.items():
        graph.lock_start(name, start, tag="frozen")
    for name in graph.task_names():
        if name not in spans:
            graph.add_release(name, now, tag="replan")
